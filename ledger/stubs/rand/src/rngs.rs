//! `StdRng`: ChaCha with 12 rounds, as in rand 0.8.

use crate::{RngCore, SeedableRng};

/// Words produced per refill: four 16-word ChaCha blocks, the buffer
/// shape of rand_chacha's `BlockRng`.
const BUF_WORDS: usize = 64;

/// The standard generator: a ChaCha12 stream keyed by the 32-byte seed,
/// 64-bit block counter, zero stream id.
#[derive(Clone, Debug)]
pub struct StdRng {
    key: [u32; 8],
    counter: u64,
    buf: [u32; BUF_WORDS],
    /// Next unread word of `buf`; `BUF_WORDS` means "refill first".
    index: usize,
}

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

impl StdRng {
    fn block(&self, counter: u64, out: &mut [u32]) {
        // "expand 32-byte k"
        let mut init = [0u32; 16];
        init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        init[4..12].copy_from_slice(&self.key);
        init[12] = counter as u32;
        init[13] = (counter >> 32) as u32;
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
        for ((o, s), i) in out.iter_mut().zip(s).zip(init) {
            *o = s.wrapping_add(i);
        }
    }

    fn refill(&mut self) {
        let mut buf = [0u32; BUF_WORDS];
        for (k, chunk) in buf.chunks_mut(16).enumerate() {
            self.block(self.counter.wrapping_add(k as u64), chunk);
        }
        self.buf = buf;
        self.counter = self.counter.wrapping_add((BUF_WORDS / 16) as u64);
        self.index = 0;
    }
}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(bytes.try_into().expect("chunks_exact(4) yields 4 bytes"));
        }
        Self {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }
}

impl RngCore for StdRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    /// Two consecutive words, low first; a read that straddles the end
    /// of the buffer takes its high word from the next refill.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32();
        let hi = self.next_u32();
        u64::from(hi) << 32 | u64::from(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ChaCha12, all-zero 256-bit key and nonce, block 0 (the "TC1"
    /// vector of draft-strombergson-chacha-test-vectors).
    #[test]
    fn chacha12_matches_the_published_zero_key_vector() {
        let mut rng = StdRng::from_seed([0; 32]);
        let bytes: Vec<u8> = (0..16).flat_map(|_| rng.next_u32().to_le_bytes()).collect();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "9bf49a6a0755f953811fce125f2683d50429c3bb49e074147e0089a52eae155f\
             0564f879d27ae3c02ce82834acfa8c793a629f2ca0de6919610be82f411326be"
        );
    }
}
