//! Deterministic RNG derivation, and the one stream this repo can seek.
//!
//! Experiments must be reproducible from a single master seed while every
//! client / round / role gets an independent stream. We derive sub-seeds
//! with SplitMix64 over a mixed tag, the standard approach for seeding
//! hierarchies of PRNGs.
//!
//! [`ChaCha12`] is `rand` 0.8's `StdRng` written out — same key
//! expansion, same words, same shuffle — with the word position
//! settable, which neither `rand` this repo builds against offers. It
//! is deliberately not an `impl rand::RngCore`: crates.io `rand` and
//! `ledger/stubs/rand` disagree on that trait's required methods.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// One SplitMix64 step: a high-quality 64-bit mixer.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from a base seed and a stream tag.
///
/// Distinct `(base, tag)` pairs map to (effectively) independent seeds;
/// the mapping is pure, so re-running an experiment regenerates identical
/// randomness.
#[inline]
pub fn derive_seed(base: u64, tag: u64) -> u64 {
    splitmix64(base ^ splitmix64(tag))
}

/// Derives a child seed from a base seed and several stream tags
/// (e.g. `[round, client_id]`).
pub fn derive_seed_n(base: u64, tags: &[u64]) -> u64 {
    let mut s = base;
    for (i, t) in tags.iter().enumerate() {
        s = derive_seed(s, t.wrapping_add((i as u64) << 32));
    }
    s
}

/// A seeded [`StdRng`] for a given base seed and tag.
pub fn rng_for(base: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(base, tag))
}

/// A seeded [`StdRng`] for a base seed and several tags.
pub fn rng_for_n(base: u64, tags: &[u64]) -> StdRng {
    StdRng::seed_from_u64(derive_seed_n(base, tags))
}

/// ChaCha with 12 rounds in counter mode: the word stream of
/// `StdRng::seed_from_u64(seed)`, seekable. Word `p` is word `p % 16`
/// of block `p / 16`, and a block is a pure function of (key, block
/// counter), so [`Self::set_word_pos`] is O(1) in the distance.
#[derive(Clone, Debug)]
pub struct ChaCha12 {
    key: [u32; 8],
    /// Position of the next word [`Self::next_u32`] returns.
    pos: u64,
    /// The block `buf` holds; [`NO_BLOCK`] before the first draw.
    block: u64,
    buf: [u32; 16],
}

/// Words per ChaCha block.
const BLOCK_WORDS: u64 = 16;

/// A block index no position reaches (positions are `u64` words).
const NO_BLOCK: u64 = u64::MAX;

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha12 {
    /// The stream under a 256-bit key (`StdRng::from_seed`'s seed read
    /// as little-endian words), 64-bit block counter from zero, zero
    /// stream id.
    pub fn from_key(key: [u32; 8]) -> Self {
        Self {
            key,
            pos: 0,
            block: NO_BLOCK,
            buf: [0; 16],
        }
    }

    /// Expands a `u64` into the key with PCG32, as rand_core 0.6's
    /// `SeedableRng::seed_from_u64` does.
    pub fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut key = [0u32; 8];
        for word in key.iter_mut() {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            *word = xorshifted.rotate_right(rot);
        }
        Self::from_key(key)
    }

    /// Fills `buf` with block `block` of the key stream.
    fn fill(&mut self, block: u64) {
        // "expand 32-byte k"
        let mut init = [0u32; 16];
        init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        init[4..12].copy_from_slice(&self.key);
        init[12] = block as u32;
        init[13] = (block >> 32) as u32;
        let mut s = init;
        for _ in 0..6 {
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for ((out, s), i) in self.buf.iter_mut().zip(s).zip(init) {
            *out = s.wrapping_add(i);
        }
        self.block = block;
    }

    /// The next word of the stream.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let block = self.pos / BLOCK_WORDS;
        if block != self.block {
            self.fill(block);
        }
        let word = self.buf[(self.pos % BLOCK_WORDS) as usize];
        self.pos += 1;
        word
    }

    /// `Rng::gen::<f32>()`: one word, 24 bits, `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        hfl_tensor::init::unit_f32(self.next_u32())
    }

    /// `Rng::gen_range(0..=high)` of rand 0.8.5: widening multiply,
    /// rejecting the biased zone.
    pub fn next_up_to(&mut self, high: u32) -> u32 {
        let range = high.wrapping_add(1);
        if range == 0 {
            return self.next_u32();
        }
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = u64::from(self.next_u32()) * u64::from(range);
            if wide as u32 <= zone {
                return (wide >> 32) as u32;
            }
        }
    }

    /// `SliceRandom::shuffle` of rand 0.8.5: Fisher–Yates from the back,
    /// swap for swap.
    ///
    /// # Panics
    /// On more than `u32::MAX` elements (rand switches samplers there;
    /// nothing here is that long).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        assert!(
            items.len() <= u32::MAX as usize,
            "shuffle is the 32-bit sampler's"
        );
        for i in (1..items.len()).rev() {
            items.swap(i, self.next_up_to(i as u32) as usize);
        }
    }

    /// How many words have been drawn (or skipped to).
    pub fn word_pos(&self) -> u64 {
        self.pos
    }

    /// Seeks: the next word drawn is word `pos` of the stream.
    pub fn set_word_pos(&mut self, pos: u64) {
        self.pos = pos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::Rng;

    const SEEDS: [u64; 4] = [0, 1, 42, u64::MAX];

    /// ChaCha12, all-zero 256-bit key and nonce, block 0 (the "TC1"
    /// vector of draft-strombergson-chacha-test-vectors).
    #[test]
    fn chacha12_matches_the_published_zero_key_vector() {
        let mut rng = ChaCha12::from_key([0; 8]);
        let hex: String = (0..16)
            .flat_map(|_| rng.next_u32().to_le_bytes())
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "9bf49a6a0755f953811fce125f2683d50429c3bb49e074147e0089a52eae155f\
             0564f879d27ae3c02ce82834acfa8c793a629f2ca0de6919610be82f411326be"
        );
    }

    #[test]
    fn words_match_std_rng_word_for_word() {
        for seed in SEEDS {
            let mut ours = ChaCha12::seed_from_u64(seed);
            let mut theirs = StdRng::seed_from_u64(seed);
            // 1,000 words cross 62 block boundaries and 15 of StdRng's
            // four-block refills.
            for w in 0..1_000 {
                assert_eq!(ours.next_u32(), theirs.gen::<u32>(), "seed {seed} word {w}");
            }
            assert_eq!(ours.word_pos(), 1_000);
        }
    }

    #[test]
    fn seeking_lands_on_the_word_a_sequential_read_reaches() {
        for seed in SEEDS {
            let mut theirs = StdRng::seed_from_u64(seed);
            let words: Vec<u32> = (0..1_000).map(|_| theirs.gen()).collect();
            let mut ours = ChaCha12::seed_from_u64(seed);
            // Backwards, onto and off block boundaries, twice in one block.
            for pos in [999u64, 0, 15, 16, 17, 31, 32, 500, 496, 497, 63, 64, 65, 3] {
                ours.set_word_pos(pos);
                assert_eq!(ours.word_pos(), pos);
                for (off, want) in words[pos as usize..].iter().take(40).enumerate() {
                    assert_eq!(ours.next_u32(), *want, "seed {seed} from {pos} + {off}");
                }
            }
        }
        // Past 2^32 blocks the counter's high word is in play.
        let mut far = ChaCha12::seed_from_u64(7);
        far.set_word_pos((1 << 36) + 5);
        let a: Vec<u32> = (0..20).map(|_| far.next_u32()).collect();
        far.set_word_pos(5);
        let b: Vec<u32> = (0..20).map(|_| far.next_u32()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn f32_draw_matches_gen_f32() {
        for seed in SEEDS {
            let mut ours = ChaCha12::seed_from_u64(seed);
            let mut theirs = StdRng::seed_from_u64(seed);
            for _ in 0..1_000 {
                assert_eq!(ours.next_f32().to_bits(), theirs.gen::<f32>().to_bits());
            }
        }
    }

    #[test]
    fn shuffle_matches_slice_random_swap_for_swap() {
        for seed in SEEDS {
            let mut ours: Vec<u32> = (0..5_000).collect();
            let mut theirs = ours.clone();
            let mut rng = ChaCha12::seed_from_u64(seed);
            let mut std_rng = StdRng::seed_from_u64(seed);
            rng.shuffle(&mut ours);
            theirs.shuffle(&mut std_rng);
            assert_eq!(ours, theirs, "seed {seed}");
            // Same number of words consumed, rejections included.
            assert_eq!(rng.next_u32(), std_rng.gen::<u32>(), "seed {seed}");
        }
    }

    #[test]
    fn derive_is_deterministic() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_eq!(derive_seed_n(7, &[1, 2, 3]), derive_seed_n(7, &[1, 2, 3]));
    }

    #[test]
    fn different_tags_differ() {
        assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
        // order of tags matters
        assert_ne!(derive_seed_n(7, &[1, 2]), derive_seed_n(7, &[2, 1]));
    }

    #[test]
    fn rngs_from_same_seed_agree() {
        let a: u64 = rng_for(9, 1).gen();
        let b: u64 = rng_for(9, 1).gen();
        assert_eq!(a, b);
    }

    #[test]
    fn splitmix_is_not_identity() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), 1);
    }
}
