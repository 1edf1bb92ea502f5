//! Cross-cluster echo/audit: the defense against equivocating leaders.
//!
//! A cluster leader that aggregates its members' models holds a
//! privileged position: nothing in plain BRA forces the value it sends
//! *upward* to equal the value it echoes *back to its cluster*. An
//! equivocating leader exploits that to poison the parent level while
//! looking honest to its children.
//!
//! The audit closes the gap with digests: every cluster member hashes
//! the partial the leader echoed to it, and the parent-level collector
//! hashes the partial the leader sent up. The parent cross-checks the
//! two — any mismatch between the up-sent digest and the members'
//! majority echo digest is cryptographic-free but unforgeable-in-
//! simulation evidence of equivocation (an equivocating leader cannot
//! make two different vectors hash alike without controlling the hash).
//! Digests are 8 bytes, so the audit costs one tiny message per member
//! per round — negligible next to model transfers.
//!
//! Detection latency is one round: the audit compares values at round
//! end, and repair (using the members' echoed value, ignoring the
//! corrupt up-send) applies from the next round.

/// Independent multiply chains of [`hash_update`].
const LANES: usize = 8;

/// Word-wise FNV-1a digest of a model vector. Word `i` (an `f32`'s
/// bits) is XORed into lane `i mod LANES` of eight 64-bit states, each
/// starting at the FNV offset, and that lane is multiplied by the FNV
/// prime; the word count and then the lanes, in order, fold into one
/// word the same way. Eight independent chains of one multiply per word
/// run about as fast as the multiplier issues, where the byte-wise
/// FNV-1a ran one serial chain of four multiplies per word.
///
/// Each word is multiplied into its lane's state, never summed: a
/// lane-wise sum of the words is blind to a sign flip of every word —
/// exactly the equivocation `−flip · partial` — whenever each lane sums
/// an even number of them. One differing word always changes the
/// digest (XOR, an odd multiplier and every later step are bijections
/// of the state). Not cryptographic — the simulation's adversary model
/// does not include hash collisions — but stable across platforms and
/// runs.
pub fn hash_update(update: &[f32]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(PRIME);
    let mut lanes = [OFFSET; LANES];
    let mut tiles = update.chunks_exact(LANES);
    for tile in &mut tiles {
        for (h, x) in lanes.iter_mut().zip(tile) {
            *h = step(*h, u64::from(x.to_bits()));
        }
    }
    for (h, x) in lanes.iter_mut().zip(tiles.remainder()) {
        *h = step(*h, u64::from(x.to_bits()));
    }
    lanes
        .into_iter()
        .fold(step(OFFSET, update.len() as u64), step)
}

/// The digests one audit instance compares for one cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EchoReport {
    /// Digest of the partial the leader sent upward.
    pub up_digest: u64,
    /// Digests of the partial each member received as the leader's echo.
    pub member_digests: Vec<u64>,
}

impl EchoReport {
    /// True when the up-sent value disagrees with the members' majority
    /// echo — equivocation. A report with no member echoes cannot
    /// convict (nothing to compare against).
    pub fn equivocated(&self) -> bool {
        if self.member_digests.is_empty() {
            return false;
        }
        let majority = majority_digest(&self.member_digests);
        self.up_digest != majority
    }
}

/// The most frequent digest (ties broken toward the smallest value, so
/// the audit is deterministic). A Byzantine *member* lying about its
/// echo cannot frame an honest leader unless liars outnumber honest
/// members.
fn majority_digest(digests: &[u64]) -> u64 {
    let mut sorted = digests.to_vec();
    sorted.sort_unstable();
    let mut best = sorted[0];
    let mut best_count = 0usize;
    let mut i = 0;
    while i < sorted.len() {
        let mut j = i;
        while j < sorted.len() && sorted[j] == sorted[i] {
            j += 1;
        }
        if j - i > best_count {
            best_count = j - i;
            best = sorted[i];
        }
        i = j;
    }
    best
}

/// Audit cost for one cluster of `members` members: each member sends
/// one digest to the parent collector, and the leader's up-send is
/// already in flight (no extra message). Returns `(messages, bytes)` —
/// digests are 8 bytes.
pub fn echo_cost(members: usize) -> (u64, u64) {
    (members as u64, 8 * members as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_separating() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [1.0f32, 2.0, 3.000001];
        assert_eq!(hash_update(&a), hash_update(&a));
        assert_ne!(hash_update(&a), hash_update(&b));
        assert_ne!(hash_update(&a), hash_update(&[]));
        // Sign matters (an equivocator's −flip·partial must not collide).
        assert_ne!(hash_update(&[1.0]), hash_update(&[-1.0]));
    }

    /// A deterministic vector of `d` mixed-sign, mixed-magnitude values.
    fn vector(d: usize) -> Vec<f32> {
        (0..d)
            .map(|i| {
                let x = hfl_tensor::splitmix64(i as u64 + 1);
                (x >> 40) as f32 * 1e-6 - 4.0
            })
            .collect()
    }

    /// `RowGroups`' kind of key: lane `k` is the wrapping sum of the
    /// bits of words `k, k + LANES, …`.
    fn lane_sum_key(update: &[f32]) -> [u32; LANES] {
        let mut lanes = [0u32; LANES];
        for (i, x) in update.iter().enumerate() {
            lanes[i % LANES] = lanes[i % LANES].wrapping_add(x.to_bits());
        }
        lanes
    }

    #[test]
    fn equal_bits_give_equal_digests() {
        for d in [0, 1, 7, 8, 9, 650] {
            let (a, b) = (vector(d), vector(d));
            assert_eq!(hash_update(&a), hash_update(&b), "d = {d}");
        }
        assert_eq!(hash_update(&[f32::NAN]), hash_update(&[f32::NAN]));
    }

    #[test]
    fn a_sign_flip_of_every_word_changes_the_digest() {
        for d in [1, 7, 8, 16, 650, 4_810] {
            let x = vector(d);
            let flipped: Vec<f32> = x.iter().map(|v| -v).collect();
            assert_ne!(hash_update(&x), hash_update(&flipped), "d = {d}");
        }
        // What a lane-wise sum would miss: with two words a lane, each
        // flip adds 2^31 twice, which wraps to nothing.
        let x = vector(2 * LANES);
        let flipped: Vec<f32> = x.iter().map(|v| -v).collect();
        assert_eq!(lane_sum_key(&x), lane_sum_key(&flipped));
        assert_ne!(hash_update(&x), hash_update(&flipped));
    }

    #[test]
    fn signed_zeros_differ() {
        assert_ne!(hash_update(&[0.0]), hash_update(&[-0.0]));
        assert_ne!(hash_update(&[1.0, 0.0]), hash_update(&[1.0, -0.0]));
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        // 19 = two full tiles of eight and a tail of three.
        let x = vector(19);
        let h = hash_update(&x);
        for i in 0..x.len() {
            for bit in 0..32 {
                let mut y = x.clone();
                y[i] = f32::from_bits(y[i].to_bits() ^ (1 << bit));
                assert_ne!(hash_update(&y), h, "word {i} bit {bit}");
            }
        }
    }

    #[test]
    fn a_trailing_zero_changes_the_digest() {
        for a in [0.0f32, 1.0, -2.5] {
            assert_ne!(hash_update(&[a]), hash_update(&[a, 0.0]), "a = {a}");
        }
        assert_ne!(hash_update(&[]), hash_update(&[0.0]));
    }

    #[test]
    fn honest_leader_passes_audit() {
        let partial = [0.25f32, -0.5];
        let d = hash_update(&partial);
        let report = EchoReport {
            up_digest: d,
            member_digests: vec![d; 4],
        };
        assert!(!report.equivocated());
    }

    #[test]
    fn equivocator_is_detected() {
        let truth = [0.25f32, -0.5];
        let corrupt = [-0.25f32, 0.5];
        let report = EchoReport {
            up_digest: hash_update(&corrupt),
            member_digests: vec![hash_update(&truth); 4],
        };
        assert!(report.equivocated());
    }

    #[test]
    fn lying_minority_member_cannot_frame_the_leader() {
        let truth = hash_update(&[1.0f32]);
        let lie = hash_update(&[2.0f32]);
        let report = EchoReport {
            up_digest: truth,
            member_digests: vec![truth, truth, lie, truth],
        };
        assert!(!report.equivocated());
    }

    #[test]
    fn empty_echo_set_cannot_convict() {
        let report = EchoReport {
            up_digest: 7,
            member_digests: vec![],
        };
        assert!(!report.equivocated());
    }

    #[test]
    fn majority_tie_breaks_deterministically() {
        // 2 vs 2 tie: smallest digest wins, both runs agree.
        assert_eq!(majority_digest(&[5, 9, 9, 5]), 5);
        assert_eq!(majority_digest(&[9, 5, 5, 9]), 5);
    }

    #[test]
    fn echo_cost_is_digest_sized() {
        assert_eq!(echo_cost(4), (4, 32));
        assert_eq!(echo_cost(0), (0, 0));
    }
}
