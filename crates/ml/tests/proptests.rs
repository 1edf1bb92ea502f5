//! Property-based tests for the ML substrate: partition conservation,
//! loss/softmax identities, model parameter round-trips.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use hfl_ml::loss::{argmax, softmax_in_place};
use hfl_ml::partition::{covers_all_labels, dirichlet_partition, iid_partition, noniid_partition};
use hfl_ml::synth::{SynthConfig, SyntheticDigits};
use hfl_ml::{ClientPopulation, Dataset, LinearSoftmax, Mlp, Model};

fn datasets_equal(a: &Dataset, b: &Dataset) -> bool {
    a.len() == b.len()
        && a.labels() == b.labels()
        && (0..a.len()).all(|i| a.x(i) == b.x(i))
}

fn small_task(train: usize) -> SyntheticDigits {
    SyntheticDigits::generate(&SynthConfig {
        train_samples: train,
        test_samples: 100,
        dim: 16,
        ..SynthConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn softmax_always_a_distribution(logits in prop::collection::vec(-50.0f32..50.0, 1..20)) {
        let mut p = logits;
        softmax_in_place(&mut p);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|x| *x >= 0.0 && x.is_finite()));
    }

    #[test]
    fn softmax_preserves_argmax(logits in prop::collection::vec(-50.0f32..50.0, 2..20)) {
        let before = argmax(&logits);
        let mut p = logits;
        softmax_in_place(&mut p);
        prop_assert_eq!(argmax(&p), before);
    }

    #[test]
    fn iid_partition_conserves_samples(n_clients in 1usize..32, seed in 0u64..100) {
        let task = small_task(1_000);
        let parts = iid_partition(&task.train, n_clients, seed);
        prop_assert_eq!(parts.len(), n_clients);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        prop_assert_eq!(total, task.train.len());
        // near-equal shard sizes
        let min = parts.iter().map(|p| p.len()).min().unwrap();
        let max = parts.iter().map(|p| p.len()).max().unwrap();
        prop_assert!(max - min <= n_clients);
    }

    #[test]
    fn noniid_partition_conserves_and_covers(
        bad_count in 0usize..28,
        seed in 0u64..100,
    ) {
        let task = small_task(3_200);
        let n = 32usize;
        let mut malicious = vec![false; n];
        for m in malicious.iter_mut().take(bad_count) {
            *m = true;
        }
        let parts = noniid_partition(&task.train, n, 2, &malicious, seed);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        prop_assert_eq!(total, task.train.len());
        for p in &parts {
            prop_assert!(p.present_labels().len() <= 2);
        }
        let honest: Vec<usize> = (0..n).filter(|c| !malicious[*c]).collect();
        prop_assert!(covers_all_labels(&parts, &honest, 10));
    }

    #[test]
    fn dirichlet_partition_conserves_and_covers(
        alpha_i in 0usize..5,
        bad_count in 0usize..16,
        seed in 0u64..100,
    ) {
        let alpha = [0.1f64, 0.3, 1.0, 10.0, 100.0][alpha_i];
        let task = small_task(3_200);
        let n = 32usize;
        let mut malicious = vec![false; n];
        for m in malicious.iter_mut().take(bad_count) {
            *m = true;
        }
        let parts = dirichlet_partition(&task.train, n, alpha, &malicious, seed);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        prop_assert_eq!(total, task.train.len());
        prop_assert!(parts.iter().all(|p| !p.is_empty()));
        let honest: Vec<usize> = (0..n).filter(|c| !malicious[*c]).collect();
        prop_assert!(covers_all_labels(&parts, &honest, 10));
    }

    #[test]
    fn dirichlet_partition_deterministic_per_seed(
        alpha_i in 0usize..3,
        seed in 0u64..100,
    ) {
        let alpha = [0.1f64, 0.5, 5.0][alpha_i];
        let task = small_task(1_600);
        let malicious = vec![false; 16];
        let a = dirichlet_partition(&task.train, 16, alpha, &malicious, seed);
        let b = dirichlet_partition(&task.train, 16, alpha, &malicious, seed);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.labels(), y.labels());
        }
    }

    #[test]
    fn lazy_iid_shards_match_eager(n_clients in 1usize..=64, seed in 0u64..100) {
        let task = small_task(1_000);
        let eager = iid_partition(&task.train, n_clients, seed);
        let pop = ClientPopulation::iid(&task.train, n_clients, seed);
        for (c, e) in eager.iter().enumerate() {
            prop_assert!(datasets_equal(e, &pop.shard(&task.train, c)), "client {c}");
        }
    }

    #[test]
    fn lazy_noniid_shards_match_eager(bad_count in 0usize..28, seed in 0u64..100) {
        let task = small_task(3_200);
        let n = 32usize;
        let mut malicious = vec![false; n];
        for m in malicious.iter_mut().take(bad_count) {
            *m = true;
        }
        let eager = noniid_partition(&task.train, n, 2, &malicious, seed);
        let pop = ClientPopulation::noniid(&task.train, n, 2, &malicious, seed);
        for (c, e) in eager.iter().enumerate() {
            prop_assert!(datasets_equal(e, &pop.shard(&task.train, c)), "client {c}");
        }
    }

    #[test]
    fn lazy_dirichlet_shards_match_eager(
        alpha_i in 0usize..3,
        bad_count in 0usize..16,
        seed in 0u64..100,
    ) {
        let alpha = [0.1f64, 1.0, 100.0][alpha_i];
        let task = small_task(3_200);
        let n = 32usize;
        let mut malicious = vec![false; n];
        for m in malicious.iter_mut().take(bad_count) {
            *m = true;
        }
        let eager = dirichlet_partition(&task.train, n, alpha, &malicious, seed);
        let pop = ClientPopulation::dirichlet(&task.train, n, alpha, &malicious, seed);
        for (c, e) in eager.iter().enumerate() {
            prop_assert!(datasets_equal(e, &pop.shard(&task.train, c)), "client {c}");
        }
    }

    #[test]
    fn linear_params_roundtrip(vals in prop::collection::vec(-10.0f32..10.0, 5 * 3 + 3)) {
        let mut m = LinearSoftmax::new(5, 3);
        m.set_params(&vals);
        prop_assert_eq!(m.params(), vals.as_slice());
    }

    #[test]
    fn mlp_params_roundtrip(seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Mlp::new(4, 3, 2, &mut rng);
        let vals: Vec<f32> = (0..m.param_len()).map(|i| (i as f32).sin()).collect();
        m.set_params(&vals);
        prop_assert_eq!(m.params(), vals.as_slice());
    }

    #[test]
    fn predictions_are_valid_classes(seed in 0u64..50) {
        let task = small_task(200);
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Mlp::new(task.train.dim(), 8, task.train.num_classes(), &mut rng);
        let mut scratch = hfl_ml::model::BatchScratch::default();
        for i in 0..20.min(task.test.len()) {
            let y = m.predict(task.test.x(i), &mut scratch);
            prop_assert!((y as usize) < task.test.num_classes());
        }
    }

    #[test]
    fn gradient_descends_loss(seed in 0u64..20) {
        // One exact-gradient step with a small LR must not increase the
        // full-batch loss (convex model, smooth objective).
        let task = small_task(200);
        let mut m = LinearSoftmax::new(task.train.dim(), 10);
        let mut rng = StdRng::seed_from_u64(seed);
        // randomize a starting point
        let p0: Vec<f32> = (0..m.param_len())
            .map(|_| hfl_tensor::init::standard_normal(&mut rng) * 0.1)
            .collect();
        m.set_params(&p0);
        let idx: Vec<usize> = (0..task.train.len()).collect();
        let mut grad = vec![0.0f32; m.param_len()];
        let mut scratch = hfl_ml::model::BatchScratch::default();
        let loss0 = m.loss_grad_batch_with(&task.train, &idx, &mut grad, &mut scratch);
        let mut p1 = p0.clone();
        hfl_tensor::ops::axpy(-0.01, &grad, &mut p1);
        m.set_params(&p1);
        let mut unused = vec![0.0f32; m.param_len()];
        let loss1 = m.loss_grad_batch_with(&task.train, &idx, &mut unused, &mut scratch);
        prop_assert!(loss1 <= loss0 + 1e-6, "loss rose: {loss0} -> {loss1}");
    }
}
