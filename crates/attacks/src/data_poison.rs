//! Data-poisoning attacks: the adversary manipulates its local training
//! dataset and then trains *honestly* on the poisoned data (paper
//! Appendix D: "a malicious node manipulates training data instead of
//! model updates" — a poisoned leader still aggregates honestly).

use rand::rngs::StdRng;
use rand::Rng;

use hfl_ml::Dataset;

/// A data-poisoning attack applied to a client's local dataset.
#[derive(Clone, Debug, PartialEq)]
pub enum DataAttack {
    /// Paper's **Type I**: set every training label to a fixed class
    /// (the evaluation uses 9).
    LabelFlipAll {
        /// The class every sample is relabelled to.
        target: u8,
    },
    /// Paper's **Type II**: relabel every sample uniformly at random over
    /// all classes.
    LabelFlipRandom,
    /// Add i.i.d. Gaussian noise to every feature.
    FeatureNoise {
        /// Noise standard deviation.
        std: f32,
    },
    /// Backdoor: stamp a trigger pattern into a fixed window of feature
    /// coordinates and relabel those samples to `target`. Only a
    /// `fraction` of samples is stamped (stealthiness knob).
    BackdoorTrigger {
        /// First feature coordinate of the trigger window.
        offset: usize,
        /// Number of coordinates the trigger occupies.
        width: usize,
        /// Trigger intensity written into the window.
        value: f32,
        /// Label the stamped samples are flipped to.
        target: u8,
        /// Fraction of the dataset stamped, in `(0, 1]`.
        fraction: f64,
    },
}

impl DataAttack {
    /// The paper's Type I attack (all labels → 9).
    pub fn type_i() -> Self {
        DataAttack::LabelFlipAll { target: 9 }
    }

    /// The paper's Type II attack (uniform-random labels).
    pub fn type_ii() -> Self {
        DataAttack::LabelFlipRandom
    }

    /// Checks every parameter [`DataAttack::apply`] asserts on, for a
    /// `dim`-dimensional `classes`-way task: `Err((which parameter, its
    /// value))` for the first unusable one. A non-finite noise spread is
    /// refused too.
    pub fn validate(&self, dim: usize, classes: usize) -> Result<(), (&'static str, f64)> {
        let usable = |ok: bool, what, value| if ok { Ok(()) } else { Err((what, value)) };
        let target = |t: u8| usable(usize::from(t) < classes, "target label", f64::from(t));
        match *self {
            DataAttack::LabelFlipAll { target: t } => target(t),
            // Random labels are drawn as `u8`s below the class count.
            DataAttack::LabelFlipRandom => usable(classes < 256, "class count", classes as f64),
            DataAttack::FeatureNoise { std } => {
                usable(std.is_finite() && std >= 0.0, "noise std", f64::from(std))
            }
            DataAttack::BackdoorTrigger {
                offset,
                width,
                target: t,
                fraction,
                ..
            } => {
                let end = offset.checked_add(width).filter(|end| *end <= dim);
                usable(
                    end.is_some(),
                    "trigger window end",
                    offset as f64 + width as f64,
                )?;
                target(t)?;
                usable(fraction > 0.0 && fraction <= 1.0, "fraction", fraction)
            }
        }
    }

    /// Poisons `data` in place. Deterministic given the RNG state.
    ///
    /// # Panics
    /// If a target label is out of range or backdoor geometry exceeds the
    /// feature dimension.
    pub fn apply(&self, data: &mut Dataset, rng: &mut StdRng) {
        match self {
            DataAttack::LabelFlipAll { target } => {
                assert!(
                    (*target as usize) < data.num_classes(),
                    "flip target out of range"
                );
                for i in 0..data.len() {
                    data.set_y(i, *target);
                }
            }
            DataAttack::LabelFlipRandom => {
                let k = data.num_classes() as u8;
                for i in 0..data.len() {
                    data.set_y(i, rng.gen_range(0..k));
                }
            }
            DataAttack::FeatureNoise { std } => {
                assert!(*std >= 0.0, "noise std must be non-negative");
                for i in 0..data.len() {
                    for x in data.x_mut(i) {
                        *x += std * hfl_tensor::init::standard_normal(rng);
                    }
                }
            }
            DataAttack::BackdoorTrigger {
                offset,
                width,
                value,
                target,
                fraction,
            } => {
                assert!(
                    offset + width <= data.dim(),
                    "trigger window exceeds feature dimension"
                );
                assert!(
                    (*target as usize) < data.num_classes(),
                    "backdoor target out of range"
                );
                assert!(*fraction > 0.0 && *fraction <= 1.0, "fraction in (0,1]");
                for i in 0..data.len() {
                    if rng.gen_bool(*fraction) {
                        for x in &mut data.x_mut(i)[*offset..*offset + *width] {
                            *x = *value;
                        }
                        data.set_y(i, *target);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        let mut d = Dataset::empty(4, 10);
        for i in 0..100 {
            d.push(&[i as f32, 0.0, 1.0, -1.0], (i % 10) as u8);
        }
        d
    }

    #[test]
    fn type_i_sets_all_labels_to_nine() {
        let mut d = toy();
        let mut rng = StdRng::seed_from_u64(1);
        DataAttack::type_i().apply(&mut d, &mut rng);
        assert!(d.labels().iter().all(|y| *y == 9));
    }

    #[test]
    fn type_ii_randomizes_labels_in_range() {
        let mut d = toy();
        let before = d.labels().to_vec();
        let mut rng = StdRng::seed_from_u64(2);
        DataAttack::type_ii().apply(&mut d, &mut rng);
        assert!(d.labels().iter().all(|y| *y < 10));
        assert_ne!(d.labels(), before.as_slice(), "labels unchanged");
        // Roughly uniform: every class present in 100 samples w.h.p.
        assert!(d.present_labels().len() >= 7);
    }

    #[test]
    fn feature_noise_perturbs_features_not_labels() {
        let mut d = toy();
        let labels_before = d.labels().to_vec();
        let x0_before = d.x(0).to_vec();
        let mut rng = StdRng::seed_from_u64(3);
        DataAttack::FeatureNoise { std: 1.0 }.apply(&mut d, &mut rng);
        assert_eq!(d.labels(), labels_before.as_slice());
        assert_ne!(d.x(0), x0_before.as_slice());
    }

    #[test]
    fn zero_noise_is_identity() {
        let mut d = toy();
        let x0 = d.x(0).to_vec();
        let mut rng = StdRng::seed_from_u64(3);
        DataAttack::FeatureNoise { std: 0.0 }.apply(&mut d, &mut rng);
        assert_eq!(d.x(0), x0.as_slice());
    }

    #[test]
    fn backdoor_stamps_window_and_label() {
        let mut d = toy();
        let mut rng = StdRng::seed_from_u64(4);
        DataAttack::BackdoorTrigger {
            offset: 1,
            width: 2,
            value: 5.0,
            target: 7,
            fraction: 1.0,
        }
        .apply(&mut d, &mut rng);
        for i in 0..d.len() {
            assert_eq!(&d.x(i)[1..3], &[5.0, 5.0]);
            assert_eq!(d.y(i), 7);
        }
    }

    #[test]
    fn backdoor_fraction_stamps_subset() {
        let mut d = toy();
        let mut rng = StdRng::seed_from_u64(5);
        DataAttack::BackdoorTrigger {
            offset: 0,
            width: 1,
            value: 9.0,
            target: 7,
            fraction: 0.3,
        }
        .apply(&mut d, &mut rng);
        let stamped = (0..d.len()).filter(|&i| d.x(i)[0] == 9.0).count();
        assert!(stamped > 10 && stamped < 60, "stamped {stamped} of 100");
    }

    #[test]
    fn attacks_are_deterministic_in_seed() {
        let mut a = toy();
        let mut b = toy();
        DataAttack::type_ii().apply(&mut a, &mut StdRng::seed_from_u64(9));
        DataAttack::type_ii().apply(&mut b, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_flip_target_panics() {
        let mut d = toy();
        let mut rng = StdRng::seed_from_u64(1);
        DataAttack::LabelFlipAll { target: 10 }.apply(&mut d, &mut rng);
    }

    #[test]
    #[should_panic(expected = "exceeds feature dimension")]
    fn bad_trigger_window_panics() {
        let mut d = toy();
        let mut rng = StdRng::seed_from_u64(1);
        DataAttack::BackdoorTrigger {
            offset: 3,
            width: 2,
            value: 1.0,
            target: 0,
            fraction: 1.0,
        }
        .apply(&mut d, &mut rng);
    }

    #[test]
    fn validate_refuses_what_apply_would_panic_on() {
        let backdoor = |offset, width, target, fraction| DataAttack::BackdoorTrigger {
            offset,
            width,
            value: 3.0,
            target,
            fraction,
        };
        // The `toy` task: 4 features, 10 classes.
        for attack in [
            DataAttack::LabelFlipAll { target: 10 },
            DataAttack::FeatureNoise { std: -1.0 },
            DataAttack::FeatureNoise { std: f32::NAN },
            backdoor(2, 3, 0, 0.5),
            backdoor(usize::MAX, 1, 0, 0.5),
            backdoor(0, 4, 10, 0.5),
            backdoor(0, 4, 0, 0.0),
            backdoor(0, 4, 0, f64::NAN),
        ] {
            assert!(attack.validate(4, 10).is_err(), "{attack:?} accepted");
        }
        assert!(DataAttack::LabelFlipRandom.validate(4, 256).is_err());
        let mut rng = StdRng::seed_from_u64(0);
        for attack in [
            DataAttack::LabelFlipAll { target: 9 },
            DataAttack::LabelFlipRandom,
            DataAttack::FeatureNoise { std: 0.0 },
            backdoor(0, 4, 9, 1.0),
        ] {
            assert_eq!(attack.validate(4, 10), Ok(()), "{attack:?}");
            attack.apply(&mut toy(), &mut rng);
        }
    }
}
