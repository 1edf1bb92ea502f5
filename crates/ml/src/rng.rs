//! Deterministic RNG derivation, and the one stream this repo can seek.
//!
//! Experiments must be reproducible from a single master seed while every
//! client / round / role gets an independent stream. We derive sub-seeds
//! with SplitMix64 over a mixed tag, the standard approach for seeding
//! hierarchies of PRNGs.
//!
//! [`ChaCha12`] is `rand` 0.8's `StdRng` written out — same key
//! expansion, same words, same shuffle — with the word position
//! settable, which the in-tree `rand` stand-in (`ledger/stubs/rand`)
//! does not offer. Its tests pin it to `StdRng` word for word.
//!
//! Every word comes out of one block body: sixteen blocks a pass, lane
//! `l` the block at counter `ctr[l]`, compiled at the CPU's vector width
//! (DESIGN.md §15, "A lane is a block"). It has two readers:
//! [`ChaCha12::next_u32`] refills sixteen consecutive blocks at a time,
//! and [`ChaCha12::words`] reads any word ranges without moving the
//! stream, packing the blocks they span into the lanes.

use std::ops::Range;

use hfl_tensor::ops::at_current;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use hfl_tensor::splitmix64;

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
    /// The pass `buf` holds — blocks `16·pass..16·pass + 16`, which are
    /// words `256·pass..256·pass + 256` in order; [`NO_PASS`] before the
    /// first draw.
    pass: u64,
    buf: Pass,
}

/// Words per ChaCha block.
const BLOCK_WORDS: u64 = 16;

/// Blocks per pass of the block body: one per lane.
const LANES: usize = 16;

/// Words per pass.
const PASS_WORDS: u64 = LANES as u64 * BLOCK_WORDS;

/// One pass: `pass[l]` is the block at lane `l`'s counter.
type Pass = [[u32; BLOCK_WORDS as usize]; LANES];

/// A pass index no position reaches (positions are `u64` words).
const NO_PASS: u64 = u64::MAX;

/// "expand 32-byte k"
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// One ChaCha quarter round on sixteen blocks at once: `a`, `b`, `c`
/// and `d` each hold one state word of every block, lane `l` of block
/// `l`.
#[inline(always)]
fn quarter_round(
    a: &mut [u32; LANES],
    b: &mut [u32; LANES],
    c: &mut [u32; LANES],
    d: &mut [u32; LANES],
) {
    for l in 0..LANES {
        a[l] = a[l].wrapping_add(b[l]);
        d[l] = (d[l] ^ a[l]).rotate_left(16);
        c[l] = c[l].wrapping_add(d[l]);
        b[l] = (b[l] ^ c[l]).rotate_left(12);
        a[l] = a[l].wrapping_add(b[l]);
        d[l] = (d[l] ^ a[l]).rotate_left(8);
        c[l] = c[l].wrapping_add(d[l]);
        b[l] = (b[l] ^ c[l]).rotate_left(7);
    }
}

/// The one block body, inlined into the function of each
/// [`Width`](hfl_tensor::ops::Width) it is run at: `out[l]` = block
/// `ctr[l]` of the key stream (zero stream id). The state is sixteen
/// rows of sixteen lanes — row `w` is word `w` of every block — so each
/// step of a quarter round is one lane-wise operation on whole rows,
/// and the blocks never interact until `out` takes them apart.
#[inline(always)]
fn blocks_body(key: &[u32; 8], ctr: &[u64; LANES], out: &mut Pass) {
    let mut init = [[0u32; LANES]; 16];
    for (row, word) in init.iter_mut().zip(SIGMA.iter().chain(key)) {
        *row = [*word; LANES];
    }
    for (l, c) in ctr.iter().enumerate() {
        init[12][l] = *c as u32;
        init[13][l] = (*c >> 32) as u32;
    }
    let mut s = init;
    let [x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15] = &mut s;
    for _ in 0..6 {
        quarter_round(x0, x4, x8, x12);
        quarter_round(x1, x5, x9, x13);
        quarter_round(x2, x6, x10, x14);
        quarter_round(x3, x7, x11, x15);
        quarter_round(x0, x5, x10, x15);
        quarter_round(x1, x6, x11, x12);
        quarter_round(x2, x7, x8, x13);
        quarter_round(x3, x4, x9, x14);
    }
    for (l, block) in out.iter_mut().enumerate() {
        for (w, word) in block.iter_mut().enumerate() {
            *word = s[w][l].wrapping_add(init[w][l]);
        }
    }
}

/// Fills `out` with the blocks at counters `ctr`, lane `l` holding
/// block `ctr[l]`, at [`Width::current`](hfl_tensor::ops::Width::current).
/// Public for the differential tests, which run it at every width.
#[doc(hidden)]
pub fn blocks(key: &[u32; 8], ctr: &[u64; LANES], out: &mut [[u32; 16]; LANES]) {
    at_current(
        #[inline(always)]
        |(key, ctr), out, (), _| blocks_body(key, ctr, out),
        (key, ctr),
        out,
        (),
    )
}

impl ChaCha12 {
    /// The stream under a 256-bit key (`StdRng::from_seed`'s seed read
    /// as little-endian words), 64-bit block counter from zero, zero
    /// stream id.
    pub fn from_key(key: [u32; 8]) -> Self {
        Self {
            key,
            pos: 0,
            pass: NO_PASS,
            buf: [[0; 16]; LANES],
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

    /// Fills `buf` with pass `pass`: sixteen consecutive blocks.
    fn refill(&mut self, pass: u64) {
        let first = pass * LANES as u64;
        let mut ctr = [0u64; LANES];
        for (l, c) in ctr.iter_mut().enumerate() {
            *c = first + l as u64;
        }
        blocks(&self.key, &ctr, &mut self.buf);
        self.pass = pass;
    }

    /// The next word of the stream.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let pass = self.pos / PASS_WORDS;
        if pass != self.pass {
            self.refill(pass);
        }
        let word = self.buf.as_flattened()[(self.pos % PASS_WORDS) as usize];
        self.pos += 1;
        word
    }

    /// The words of `ranges` (absolute word positions), concatenated in
    /// order — a pure read: the stream's own position does not move.
    /// Each pass packs into its sixteen lanes the next sixteen blocks
    /// the ranges span, so a run of short ranges (one sample's noise
    /// each) wastes no lane on a range's end.
    pub fn words<R: IntoIterator<Item = Range<u64>>>(&self, ranges: R) -> Words<R::IntoIter> {
        Words {
            key: self.key,
            ranges: ranges.into_iter(),
            rest: 0..0,
            buf: [[0; 16]; LANES],
            len: 0,
            at: 0,
        }
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

/// The words of a run of stream ranges, concatenated: see
/// [`ChaCha12::words`]. The pass lives in the reader, so a reader on the
/// stack reads without touching the heap.
#[derive(Debug)]
pub struct Words<R> {
    key: [u32; 8],
    ranges: R,
    /// What is left of the range being packed.
    rest: Range<u64>,
    /// The current pass, each lane's share of the ranges moved to the
    /// front: words `at..len` of the flattened pass are still to come.
    buf: Pass,
    len: usize,
    at: usize,
}

impl<R: Iterator<Item = Range<u64>>> Words<R> {
    /// Packs the next blocks the ranges span into the lanes — each lane
    /// the block holding the next word not yet packed, and the window of
    /// it the range covers — generates them, and closes the gaps between
    /// the windows. False once the ranges are spent. Kept out of line so
    /// that [`Self::read_into`] — a compare and a copy — inlines into its
    /// callers.
    #[inline(never)]
    fn refill(&mut self) -> bool {
        let mut ctr = [0u64; LANES];
        let mut windows = [(0usize, 0usize); LANES];
        let mut lanes = 0;
        while lanes < LANES {
            if self.rest.is_empty() {
                match self.ranges.next() {
                    Some(range) => self.rest = range,
                    None => break,
                }
                continue;
            }
            let block = self.rest.start / BLOCK_WORDS;
            let lo = (self.rest.start % BLOCK_WORDS) as usize;
            let hi = (self.rest.end - block * BLOCK_WORDS).min(BLOCK_WORDS) as usize;
            ctr[lanes] = block;
            windows[lanes] = (lo, hi);
            self.rest.start = block * BLOCK_WORDS + hi as u64;
            lanes += 1;
        }
        if lanes == 0 {
            return false;
        }
        blocks(&self.key, &ctr, &mut self.buf);
        let flat = self.buf.as_flattened_mut();
        let mut len = 0;
        for (l, &(lo, hi)) in windows[..lanes].iter().enumerate() {
            let from = l * BLOCK_WORDS as usize;
            if from + lo != len {
                flat.copy_within(from + lo..from + hi, len);
            }
            len += hi - lo;
        }
        (self.len, self.at) = (len, 0);
        true
    }

    /// Fills `out` with the next words, a pass's run at a time; false
    /// (and `out` written only in part) when the ranges end first.
    pub fn read_into(&mut self, mut out: &mut [u32]) -> bool {
        while !out.is_empty() {
            if self.at == self.len && !self.refill() {
                return false;
            }
            let n = (self.len - self.at).min(out.len());
            let (head, rest) = out.split_at_mut(n);
            head.copy_from_slice(&self.buf.as_flattened()[self.at..self.at + n]);
            self.at += n;
            out = rest;
        }
        true
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
