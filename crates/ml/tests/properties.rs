//! Property tests for the ML substrate: partition conservation,
//! loss/softmax identities, model parameter round-trips.
//!
//! Each property runs [`CASES`] cases; case `c` draws its inputs from
//! `StdRng::seed_from_u64(c)`, and every failure names `c`. A
//! counterexample once found stays as an explicit input of its property.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hfl_ml::loss::{argmax, softmax_in_place};
use hfl_ml::partition::{covers_all_labels, dirichlet_partition, iid_partition, noniid_partition};
use hfl_ml::synth::{SynthConfig, SyntheticDigits};
use hfl_ml::{ClientPopulation, Dataset, LinearSoftmax, Mlp, Model};

const CASES: u64 = 32;

/// Case numbers, each with the generator it seeds.
fn cases() -> impl Iterator<Item = (u64, StdRng)> {
    (0..CASES).map(|case| (case, StdRng::seed_from_u64(case)))
}

fn datasets_equal(a: &Dataset, b: &Dataset) -> bool {
    a.len() == b.len() && a.labels() == b.labels() && (0..a.len()).all(|i| a.x(i) == b.x(i))
}

fn small_task(train: usize) -> SyntheticDigits {
    SyntheticDigits::generate(&SynthConfig {
        train_samples: train,
        test_samples: 100,
        dim: 16,
        ..SynthConfig::default()
    })
}

fn logits(rng: &mut StdRng, min_len: usize) -> Vec<f32> {
    let len = rng.gen_range(min_len..20);
    (0..len).map(|_| rng.gen_range(-50.0f32..50.0)).collect()
}

/// The first `bad_count` of `n` clients malicious.
fn prefix_mask(n: usize, bad_count: usize) -> Vec<bool> {
    (0..n).map(|c| c < bad_count).collect()
}

#[test]
fn softmax_always_a_distribution() {
    for (case, mut rng) in cases() {
        let mut p = logits(&mut rng, 1);
        softmax_in_place(&mut p);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "case {case}: sum {sum}");
        assert!(
            p.iter().all(|x| *x >= 0.0 && x.is_finite()),
            "case {case}: {p:?}"
        );
    }
}

#[test]
fn softmax_preserves_argmax() {
    for (case, mut rng) in cases() {
        let mut p = logits(&mut rng, 2);
        let before = argmax(&p);
        softmax_in_place(&mut p);
        assert_eq!(argmax(&p), before, "case {case}");
    }
}

#[test]
fn iid_partition_conserves_samples() {
    let task = small_task(1_000);
    for (case, mut rng) in cases() {
        let n_clients = rng.gen_range(1usize..32);
        let seed = rng.gen_range(0u64..100);
        let parts = iid_partition(&task.train, n_clients, seed);
        assert_eq!(parts.len(), n_clients, "case {case}");
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, task.train.len(), "case {case}");
        // near-equal shard sizes
        let min = parts.iter().map(|p| p.len()).min().unwrap();
        let max = parts.iter().map(|p| p.len()).max().unwrap();
        assert!(max - min <= n_clients, "case {case}: shards {min}..={max}");
    }
}

/// Counterexample found by an earlier random search: 16 of 32 clients
/// malicious under partition seed 29.
const NONIID_FOUND: (usize, u64) = (16, 29);

#[test]
fn noniid_partition_conserves_and_covers() {
    let task = small_task(3_200);
    let n = 32usize;
    let check = |what: &str, bad_count: usize, seed: u64| {
        let malicious = prefix_mask(n, bad_count);
        let parts = noniid_partition(&task.train, n, 2, &malicious, seed);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, task.train.len(), "{what}");
        for p in &parts {
            assert!(p.present_labels().len() <= 2, "{what}");
        }
        let honest: Vec<usize> = (0..n).filter(|c| !malicious[*c]).collect();
        assert!(
            covers_all_labels(&parts, &honest, 10),
            "{what}: bad_count {bad_count}, seed {seed}"
        );
    };
    check("found", NONIID_FOUND.0, NONIID_FOUND.1);
    for (case, mut rng) in cases() {
        let bad_count = rng.gen_range(0usize..28);
        check(&format!("case {case}"), bad_count, rng.gen_range(0u64..100));
    }
}

#[test]
fn dirichlet_partition_conserves_and_covers() {
    let task = small_task(3_200);
    let n = 32usize;
    for (case, mut rng) in cases() {
        let alpha = [0.1f64, 0.3, 1.0, 10.0, 100.0][rng.gen_range(0usize..5)];
        let malicious = prefix_mask(n, rng.gen_range(0usize..16));
        let seed = rng.gen_range(0u64..100);
        let parts = dirichlet_partition(&task.train, n, alpha, &malicious, seed);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, task.train.len(), "case {case}");
        assert!(parts.iter().all(|p| !p.is_empty()), "case {case}");
        let honest: Vec<usize> = (0..n).filter(|c| !malicious[*c]).collect();
        assert!(covers_all_labels(&parts, &honest, 10), "case {case}");
    }
}

#[test]
fn dirichlet_partition_deterministic_per_seed() {
    let task = small_task(1_600);
    let malicious = vec![false; 16];
    for (case, mut rng) in cases() {
        let alpha = [0.1f64, 0.5, 5.0][rng.gen_range(0usize..3)];
        let seed = rng.gen_range(0u64..100);
        let a = dirichlet_partition(&task.train, 16, alpha, &malicious, seed);
        let b = dirichlet_partition(&task.train, 16, alpha, &malicious, seed);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.labels(), y.labels(), "case {case}");
        }
    }
}

#[test]
fn lazy_iid_shards_match_eager() {
    let task = small_task(1_000);
    for (case, mut rng) in cases() {
        let n_clients = rng.gen_range(1usize..=64);
        let seed = rng.gen_range(0u64..100);
        let eager = iid_partition(&task.train, n_clients, seed);
        let pop = ClientPopulation::iid(&task.train, n_clients, seed);
        for (c, e) in eager.iter().enumerate() {
            assert!(
                datasets_equal(e, &pop.shard(&task.train, c)),
                "case {case}: client {c}"
            );
        }
    }
}

#[test]
fn lazy_noniid_shards_match_eager() {
    let task = small_task(3_200);
    let n = 32usize;
    for (case, mut rng) in cases() {
        let malicious = prefix_mask(n, rng.gen_range(0usize..28));
        let seed = rng.gen_range(0u64..100);
        let eager = noniid_partition(&task.train, n, 2, &malicious, seed);
        let pop = ClientPopulation::noniid(&task.train, n, 2, &malicious, seed);
        for (c, e) in eager.iter().enumerate() {
            assert!(
                datasets_equal(e, &pop.shard(&task.train, c)),
                "case {case}: client {c}"
            );
        }
    }
}

#[test]
fn lazy_dirichlet_shards_match_eager() {
    let task = small_task(3_200);
    let n = 32usize;
    for (case, mut rng) in cases() {
        let alpha = [0.1f64, 1.0, 100.0][rng.gen_range(0usize..3)];
        let malicious = prefix_mask(n, rng.gen_range(0usize..16));
        let seed = rng.gen_range(0u64..100);
        let eager = dirichlet_partition(&task.train, n, alpha, &malicious, seed);
        let pop = ClientPopulation::dirichlet(&task.train, n, alpha, &malicious, seed);
        for (c, e) in eager.iter().enumerate() {
            assert!(
                datasets_equal(e, &pop.shard(&task.train, c)),
                "case {case}: client {c}"
            );
        }
    }
}

#[test]
fn linear_params_roundtrip() {
    for (case, mut rng) in cases() {
        let vals: Vec<f32> = (0..5 * 3 + 3)
            .map(|_| rng.gen_range(-10.0f32..10.0))
            .collect();
        let mut m = LinearSoftmax::new(5, 3);
        m.set_params(&vals);
        assert_eq!(m.params(), vals.as_slice(), "case {case}");
    }
}

#[test]
fn mlp_params_roundtrip() {
    for (case, mut rng) in cases() {
        let mut rng = StdRng::seed_from_u64(rng.gen_range(0u64..100));
        let mut m = Mlp::new(4, 3, 2, &mut rng);
        let vals: Vec<f32> = (0..m.param_len()).map(|i| (i as f32).sin()).collect();
        m.set_params(&vals);
        assert_eq!(m.params(), vals.as_slice(), "case {case}");
    }
}

#[test]
fn predictions_are_valid_classes() {
    let task = small_task(200);
    for (case, mut rng) in cases() {
        let mut rng = StdRng::seed_from_u64(rng.gen_range(0u64..50));
        let m = Mlp::new(task.train.dim(), 8, task.train.num_classes(), &mut rng);
        let mut scratch = hfl_ml::model::BatchScratch::default();
        for i in 0..20.min(task.test.len()) {
            let y = m.predict(task.test.x(i), &mut scratch);
            assert!(
                (y as usize) < task.test.num_classes(),
                "case {case}: sample {i}"
            );
        }
    }
}

#[test]
fn gradient_descends_loss() {
    // One exact-gradient step with a small LR must not increase the
    // full-batch loss (convex model, smooth objective).
    let task = small_task(200);
    for (case, mut rng) in cases() {
        let mut m = LinearSoftmax::new(task.train.dim(), 10);
        let mut rng = StdRng::seed_from_u64(rng.gen_range(0u64..20));
        // randomize a starting point
        let p0: Vec<f32> = (0..m.param_len())
            .map(|_| hfl_tensor::init::standard_normal(&mut rng) * 0.1)
            .collect();
        m.set_params(&p0);
        let idx: Vec<usize> = (0..task.train.len()).collect();
        let mut grad = vec![0.0f32; m.param_len()];
        let mut scratch = hfl_ml::model::BatchScratch::default();
        m.grad_batch_with(&task.train, &idx, &mut grad, &mut scratch);
        let loss0 = m.mean_loss(&task.train, &idx, &mut scratch);
        let mut p1 = p0.clone();
        hfl_tensor::ops::axpy(-0.01, &grad, &mut p1);
        m.set_params(&p1);
        let loss1 = m.mean_loss(&task.train, &idx, &mut scratch);
        assert!(
            loss1 <= loss0 + 1e-6,
            "case {case}: loss rose: {loss0} -> {loss1}"
        );
    }
}
