//! Slice helpers: the Fisher–Yates shuffle of rand 0.8.

use crate::{Rng, RngCore};

pub trait SliceRandom {
    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            // rand draws small bounds through the 32-bit sampler.
            let j = if i < u32::MAX as usize {
                rng.gen_range(0..=i as u32) as usize
            } else {
                rng.gen_range(0..=i)
            };
            self.swap(i, j);
        }
    }
}
