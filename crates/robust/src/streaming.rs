//! One-pass streaming aggregation kernels for sampled-cohort rounds.
//!
//! The batch kernels in [`crate::median`] / [`crate::trimmed_mean`] /
//! [`crate::krum`] hold every update simultaneously: O(n·d) memory for
//! the coordinate rules and an O(n²·d) distance matrix for Krum. With
//! per-round client sampling the collector sees updates *in arrival
//! order* and the cohort can be large; these variants bound the working
//! set independently of the input count:
//!
//! * [`StreamingMedian`] — P² quantile estimation (Jain & Chlamtac,
//!   CACM 1985) per coordinate: five markers per coordinate, one pass
//!   over each cache line of the input, and the markers of one
//!   sixteen-coordinate tile at a time as the only state — on the
//!   stack, whatever `d` is.
//! * [`StreamingTrimmedMean`] — a deterministic reservoir of whole rows
//!   (Algorithm R with a splitmix64-hashed replacement slot, so the same
//!   arrival order always yields the same reservoir), then the exact
//!   trimmed mean over the reservoir: O(R·d) state with R fixed.
//! * [`SampledKrum`] — arrival-order bucketing to `m` bucket means, then
//!   exact Krum over the means: the distance matrix shrinks from
//!   O(n²·d) to O(m²·d).
//!
//! Every rule falls back to the exact batch kernel below a configurable
//! input-count threshold, so small-cohort rounds — everything the paper's
//! evaluation actually runs — are bit-identical to the batch rules; the
//! approximations only engage past the threshold where the batch kernels
//! would dominate memory. The equivalence proptests in
//! `crates/robust/tests/proptests.rs` pin the fallback regime.

use crate::{validate_updates, AggScratch, Aggregator, CoordMedian, Krum, TrimmedMean};
use hfl_tensor::ops::at_widest;
use hfl_tensor::stats::{column_stat_into, tile_lanes, ColumnStat, ColumnTile, TILE_LANES};

/// Default input-count threshold below which the streaming rules run the
/// exact batch kernel. Chosen well above every cluster size the paper's
/// topologies produce, so existing configs that opt into a streaming
/// rule still aggregate exactly.
pub const DEFAULT_EXACT_THRESHOLD: usize = 256;

/// P² median estimates (Jain & Chlamtac, CACM 1985; five markers, p =
/// 0.5) of coordinates `at..at + out.len()`, at most [`TILE_LANES`] of
/// them, over `rows` in arrival order — fewer than five rows give the
/// exact median of what there is, in `f64` as the markers are.
///
/// The estimators of a tile advance together, a row at a time: marker
/// heights `q` and positions `n` are lane arrays on the stack, the
/// desired positions `np` are one array for every lane, and both
/// locating an observation's cell and moving a marker are compares and
/// selects with no branch on one lane's data (a marker's arithmetic is
/// skipped when no lane of the tile moves it). Each lane performs the
/// operations of the textbook scalar estimator in its order, so the
/// estimate is that estimator's bit for bit, NaN and ±∞ included.
#[inline(always)]
fn p2_tile(rows: &[&[f32]], at: usize, out: &mut [f32]) {
    let lanes = out.len();
    let (head, tail) = rows.split_at(rows.len().min(5));
    let mut first = ColumnTile::<5>::new();
    first.load(head.iter().copied(), at, lanes);
    first.sort();
    if let m @ 1..=4 = head.len() {
        let (a, b) = (first.row((m - 1) / 2), first.row(m / 2));
        for (w, o) in out.iter_mut().enumerate() {
            let (a, b) = (a[w] as f64, b[w] as f64);
            *o = if m % 2 == 1 { a } else { 0.5 * (a + b) } as f32;
        }
        return;
    }
    // Marker `i` starts at the `i`-th smallest of the first five rows, at
    // rank `i + 1`. (Spelt out: a loop over the markers is vectorised
    // across them, with gathers.)
    let mut q = [
        widen(first.row(0)),
        widen(first.row(1)),
        widen(first.row(2)),
        widen(first.row(3)),
        widen(first.row(4)),
    ];
    let mut n = [
        [1.0; TILE_LANES],
        [2.0; TILE_LANES],
        [3.0; TILE_LANES],
        [4.0; TILE_LANES],
        [5.0; TILE_LANES],
    ];
    let mut np = [1.0, 2.0, 3.0, 4.0, 5.0];
    for row in tail {
        let xs = tile_lanes(row, at, lanes);
        for (want, step) in np.iter_mut().zip([0.0, 0.25, 0.5, 0.75, 1.0]) {
            *want += step;
        }
        for w in 0..TILE_LANES {
            let x = xs[w] as f64;
            // `x` stretches an extreme marker, or falls in the cell
            // after the last interior marker it reaches. The markers
            // that are not NaN never decrease from q₀ to q₄ (the sort
            // starts them so, q₀ only falls, q₄ only rises, an interior
            // one moves between its neighbours), so an `x` below q₀
            // reaches none of them and needs no case of its own.
            let lo = x < q[0][w];
            let past3 = (x >= q[4][w]) | (x >= q[3][w]);
            let past2 = past3 | (x >= q[2][w]);
            let past1 = past2 | (x >= q[1][w]);
            q[0][w] = if lo { x } else { q[0][w] };
            q[4][w] = if x > q[4][w] { x } else { q[4][w] };
            // Every marker above the cell moves up one rank.
            n[1][w] += if past1 { 0.0 } else { 1.0 };
            n[2][w] += if past2 { 0.0 } else { 1.0 };
            n[3][w] += if past3 { 0.0 } else { 1.0 };
            n[4][w] += 1.0;
        }
        // Interior markers move toward their desired positions, lowest
        // first: each reads the one below it as just moved.
        for i in 1..4 {
            // +1 / −1 where the marker is a whole rank or more from its
            // desired position and the neighbour on that side leaves
            // room, 0 where it stays.
            let mut step = [0.0f64; TILE_LANES];
            for w in 0..TILE_LANES {
                let d = np[i] - n[i][w];
                let up = (d >= 1.0) & (n[i + 1][w] - n[i][w] > 1.0);
                let down = (d <= -1.0) & (n[i - 1][w] - n[i][w] < -1.0);
                step[w] = up as u8 as f64 - down as u8 as f64;
            }
            if step == [0.0; TILE_LANES] {
                continue;
            }
            for w in 0..TILE_LANES {
                let s = step[w];
                let (q0, q1, q2) = (q[i - 1][w], q[i][w], q[i + 1][w]);
                let (n0, n1, n2) = (n[i - 1][w], n[i][w], n[i + 1][w]);
                // Piecewise-parabolic height, or linear toward the
                // neighbour on the side of the move when that would
                // leave the neighbours' range.
                let parabolic = q1
                    + s / (n2 - n0)
                        * ((n1 - n0 + s) * (q2 - q1) / (n2 - n1)
                            + (n2 - n1 - s) * (q1 - q0) / (n1 - n0));
                let (qs, ns) = if s > 0.0 { (q2, n2) } else { (q0, n0) };
                let linear = q1 + s * (qs - q1) / (ns - n1);
                let moved = if (q0 < parabolic) & (parabolic < q2) {
                    parabolic
                } else {
                    linear
                };
                q[i][w] = if s != 0.0 { moved } else { q1 };
                n[i][w] = n1 + s;
            }
        }
    }
    for (o, m) in out.iter_mut().zip(q[2]) {
        *o = m as f32;
    }
}

/// One tile row as the `f64` the markers are.
#[inline(always)]
fn widen(row: [f32; TILE_LANES]) -> [f64; TILE_LANES] {
    let mut wide = [0.0; TILE_LANES];
    for (w, x) in wide.iter_mut().zip(row) {
        *w = x as f64;
    }
    wide
}

/// [`p2_tile`] over every tile of `out` — the body [`StreamingMedian`]
/// runs at the CPU's vector width.
#[inline(always)]
fn p2_tiles(rows: &[&[f32]], out: &mut [f32]) {
    for (t, o) in out.chunks_mut(TILE_LANES).enumerate() {
        p2_tile(rows, t * TILE_LANES, o);
    }
}

/// Coordinate-wise median that keeps a fixed number of markers per
/// coordinate, whatever the input count, past
/// [`exact_threshold`](Self::exact_threshold) inputs.
#[derive(Clone, Copy, Debug)]
pub struct StreamingMedian {
    exact_threshold: usize,
}

impl StreamingMedian {
    /// Streaming median that runs the exact batch kernel below
    /// `exact_threshold` inputs and P² above.
    pub fn new(exact_threshold: usize) -> Self {
        Self {
            exact_threshold: exact_threshold.max(1),
        }
    }

    /// The exact-fallback threshold.
    pub fn exact_threshold(&self) -> usize {
        self.exact_threshold
    }
}

impl Aggregator for StreamingMedian {
    fn name(&self) -> &'static str {
        "streaming-median"
    }

    fn aggregate(&self, updates: &[&[f32]], weights: Option<&[f32]>) -> Vec<f32> {
        let mut out = Vec::new();
        self.aggregate_into(updates, weights, &mut out, &mut AggScratch::default());
        out
    }

    fn aggregate_into(
        &self,
        updates: &[&[f32]],
        weights: Option<&[f32]>,
        out: &mut Vec<f32>,
        scratch: &mut AggScratch,
    ) {
        if updates.len() < self.exact_threshold {
            return CoordMedian.aggregate_into(updates, weights, out, scratch);
        }
        let d = validate_updates(updates);
        out.clear();
        out.resize(d, 0.0);
        at_widest(
            #[inline(always)]
            |rows, out, (), _| p2_tiles(rows, out),
            updates,
            &mut out[..],
            (),
        );
    }

    fn max_byzantine(&self, n: usize) -> usize {
        // Same breakdown point as the batch median.
        n.saturating_sub(1) / 2
    }
}

/// splitmix64 finalizer: the deterministic "coin" for reservoir slots.
/// Inlined rather than pulled from `hfl-ml` to keep this crate's
/// dependency set unchanged.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Coordinate-wise trimmed mean over a deterministic row reservoir past
/// [`exact_threshold`](Self::exact_threshold) inputs.
#[derive(Clone, Copy, Debug)]
pub struct StreamingTrimmedMean {
    exact: TrimmedMean,
    exact_threshold: usize,
}

impl StreamingTrimmedMean {
    /// Streaming trimmed mean removing a `ratio` fraction from each tail,
    /// exact below `exact_threshold` inputs and reservoir-based above
    /// (the reservoir holds `exact_threshold` rows).
    ///
    /// # Panics
    /// If `ratio` is outside `[0, 0.5)`.
    pub fn new(ratio: f64, exact_threshold: usize) -> Self {
        Self {
            exact: TrimmedMean::new(ratio),
            exact_threshold: exact_threshold.max(1),
        }
    }

    /// The exact-fallback threshold (also the reservoir capacity).
    pub fn exact_threshold(&self) -> usize {
        self.exact_threshold
    }
}

impl Aggregator for StreamingTrimmedMean {
    fn name(&self) -> &'static str {
        "streaming-trimmed-mean"
    }

    fn aggregate(&self, updates: &[&[f32]], weights: Option<&[f32]>) -> Vec<f32> {
        let mut out = Vec::new();
        self.aggregate_into(updates, weights, &mut out, &mut AggScratch::default());
        out
    }

    fn aggregate_into(
        &self,
        updates: &[&[f32]],
        weights: Option<&[f32]>,
        out: &mut Vec<f32>,
        scratch: &mut AggScratch,
    ) {
        let cap = self.exact_threshold;
        if updates.len() < cap {
            return self.exact.aggregate_into(updates, weights, out, scratch);
        }
        let d = validate_updates(updates);
        // Algorithm R over whole rows with a hash-derived slot: arrival
        // `i` replaces slot `splitmix64(i) mod (i + 1)` when that lands
        // inside the reservoir. Same arrival order ⇒ same reservoir.
        let reservoir = &mut scratch.idx;
        reservoir.clear();
        reservoir.extend(0..cap);
        for i in cap..updates.len() {
            let j = (splitmix64(i as u64) % (i as u64 + 1)) as usize;
            if j < cap {
                reservoir[j] = i;
            }
        }
        let trim = self.exact.trim_count(cap);
        out.clear();
        out.resize(d, 0.0);
        column_stat_into(
            ColumnStat::TrimmedMean { trim },
            reservoir.iter().map(|&i| updates[i]),
            0,
            out,
            &mut scratch.col,
        );
    }

    fn max_byzantine(&self, n: usize) -> usize {
        // The trim budget is what the rule absorbs per coordinate; past
        // the threshold it applies to the reservoir, which the adversary
        // does not control the membership of.
        self.exact.trim_count(n.min(self.exact_threshold))
    }
}

/// Krum over `m` arrival-order bucket means: bounds the pairwise
/// distance matrix to O(m²·d) regardless of the input count. Exact Krum
/// below `m` inputs.
#[derive(Clone, Copy, Debug)]
pub struct SampledKrum {
    f: usize,
    m: usize,
}

impl SampledKrum {
    /// Sampled Krum assuming at most `f` Byzantine inputs, bucketing to
    /// at most `m` bucket means.
    ///
    /// # Panics
    /// If `m == 0`.
    pub fn new(f: usize, m: usize) -> Self {
        assert!(m > 0, "sampled Krum needs at least one bucket");
        Self { f, m }
    }

    /// The assumed Byzantine count.
    pub fn f(&self) -> usize {
        self.f
    }

    /// The bucket budget.
    pub fn m(&self) -> usize {
        self.m
    }
}

impl Aggregator for SampledKrum {
    fn name(&self) -> &'static str {
        "sampled-krum"
    }

    fn aggregate(&self, updates: &[&[f32]], weights: Option<&[f32]>) -> Vec<f32> {
        let d = validate_updates(updates);
        let n = updates.len();
        if n <= self.m {
            return Krum::new(self.f).aggregate(updates, weights);
        }
        // Contiguous arrival-order buckets, near-equal sizes. One
        // Byzantine input corrupts at most its own bucket mean, so `f`
        // Byzantine inputs corrupt at most `f` of the `m` means and the
        // usual Krum resilience argument applies at the bucket level.
        let per = n / self.m;
        let extra = n % self.m;
        let mut means: Vec<Vec<f32>> = Vec::with_capacity(self.m);
        let mut start = 0;
        for b in 0..self.m {
            let size = per + usize::from(b < extra);
            let bucket = &updates[start..start + size];
            let mut mean = vec![0.0f32; d];
            hfl_tensor::ops::mean_of(bucket, &mut mean);
            means.push(mean);
            start += size;
        }
        let refs: Vec<&[f32]> = means.iter().map(|v| v.as_slice()).collect();
        Krum::new(self.f).aggregate(&refs, None)
    }

    fn max_byzantine(&self, n: usize) -> usize {
        // Krum's bound evaluated at the effective input count (buckets
        // past the cut, raw inputs below it).
        self.m.min(n).saturating_sub(3) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::cluster_with_outliers;
    use crate::{CoordMedian, TrimmedMean};

    fn refs(v: &[Vec<f32>]) -> Vec<&[f32]> {
        v.iter().map(|x| x.as_slice()).collect()
    }

    /// Deterministic pseudo-shuffle: a fixed-seed Fisher–Yates over the
    /// splitmix64 stream.
    fn shuffled<T: Clone>(xs: &[T], seed: u64) -> Vec<T> {
        let mut v = xs.to_vec();
        for i in (1..v.len()).rev() {
            let j = (splitmix64(seed.wrapping_add(i as u64)) % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }

    #[test]
    fn exact_fallback_matches_batch_median_any_order() {
        let updates = cluster_with_outliers(&[1.0, -2.0, 0.5], 0.4, 9, &[40.0, -40.0, 0.0], 2);
        let sm = StreamingMedian::new(DEFAULT_EXACT_THRESHOLD);
        for seed in 0..5u64 {
            let perm = shuffled(&updates, seed);
            let got = sm.aggregate(&refs(&perm), None);
            let want = CoordMedian.aggregate(&refs(&perm), None);
            assert_eq!(got, want, "fallback must be bit-identical");
        }
    }

    #[test]
    fn exact_fallback_matches_batch_trimmed_mean_any_order() {
        let updates = cluster_with_outliers(&[2.0, 2.0], 0.3, 10, &[-25.0, 25.0], 2);
        let st = StreamingTrimmedMean::new(0.2, DEFAULT_EXACT_THRESHOLD);
        let bt = TrimmedMean::new(0.2);
        for seed in 0..5u64 {
            let perm = shuffled(&updates, seed);
            let got = st.aggregate(&refs(&perm), None);
            let want = bt.aggregate(&refs(&perm), None);
            assert_eq!(got, want, "fallback must be bit-identical");
        }
    }

    #[test]
    fn exact_fallback_survives_a_nan_minority() {
        let mut updates = cluster_with_outliers(&[1.0, -2.0], 0.2, 7, &[f32::NAN, f32::NAN], 2);
        updates.swap(0, 8);
        let refs = refs(&updates);
        let median = StreamingMedian::new(DEFAULT_EXACT_THRESHOLD).aggregate(&refs, None);
        assert!(
            hfl_tensor::ops::dist(&median, &[1.0, -2.0]) < 0.5,
            "{median:?}"
        );
        let trimmed =
            StreamingTrimmedMean::new(0.25, DEFAULT_EXACT_THRESHOLD).aggregate(&refs, None);
        assert!(
            hfl_tensor::ops::dist(&trimmed, &[1.0, -2.0]) < 0.5,
            "{trimmed:?}"
        );
    }

    /// Each compiled width the host has against the plain one, exact
    /// bits: the prefix path, the first observation rows and a long
    /// cohort; tiles short, exact and several; NaN and ±∞ among the
    /// inputs.
    #[test]
    fn p2_reads_the_same_bits_at_every_width() {
        use hfl_tensor::ops::Width;
        let mut ran = Vec::new();
        for n in [1usize, 4, 5, 6, 8, 9, 40, 300] {
            for d in [1usize, 15, 16, 17, 100] {
                let rows: Vec<Vec<f32>> = (0..n)
                    .map(|r| {
                        (0..d)
                            .map(|c| {
                                let h = splitmix64((r * 1000 + c) as u64) as u32;
                                match h >> 27 {
                                    0 => f32::from_bits(0x7fc0_0000 | (h & 0x8000_0000)),
                                    1 => [f32::INFINITY, f32::NEG_INFINITY][c % 2],
                                    2 | 3 => (h & 7) as f32 - 4.0,
                                    _ => f32::from_bits((h & 0x80ff_ffff) | 0x3e00_0000),
                                }
                            })
                            .collect()
                    })
                    .collect();
                let rows = refs(&rows);
                let run = |width: Width| {
                    let mut out = vec![f32::NAN; d];
                    width
                        .run(
                            #[inline(always)]
                            |rows, out, (), _| p2_tiles(rows, out),
                            &rows[..],
                            &mut out[..],
                            (),
                        )
                        .map(|()| out.iter().map(|x| x.to_bits()).collect::<Vec<u32>>())
                };
                let plain = run(Width::Plain).expect("runs anywhere");
                for width in Width::ALL {
                    let Some(got) = run(width) else { continue };
                    assert_eq!(got, plain, "{width:?} n={n} d={d}");
                    if !ran.contains(&width) {
                        ran.push(width);
                    }
                }
            }
        }
        println!("P² widths run on this host: {ran:?}");
    }

    #[test]
    fn p2_path_approximates_the_median() {
        // 1000 inputs, well past a threshold of 16: the P² estimate per
        // coordinate must land near the true median.
        let n = 1000;
        let updates: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let x = (splitmix64(i as u64) % 2000) as f32 / 1000.0 - 1.0;
                vec![x, 3.0 + x * 0.5]
            })
            .collect();
        let out = StreamingMedian::new(16).aggregate(&refs(&updates), None);
        let exact = CoordMedian.aggregate(&refs(&updates), None);
        for (o, e) in out.iter().zip(&exact) {
            assert!((o - e).abs() < 0.05, "P² estimate {o} vs exact {e}");
        }
    }

    #[test]
    fn p2_path_resists_minority_outliers() {
        // Outliers interleaved with honest arrivals (the engine shuffles
        // arrival order). P² is an approximation whose marker heights
        // interpolate across the honest/outlier gap, so the contract is
        // "stays with the honest cloud", not exact-median tightness:
        // the estimate must end up orders of magnitude closer to the
        // honest center than to the ±50 outliers, for every order.
        for seed in 0..5u64 {
            let updates = shuffled(
                &cluster_with_outliers(&[1.0, 2.0], 0.1, 60, &[50.0, -50.0], 12),
                seed,
            );
            let out = StreamingMedian::new(16).aggregate(&refs(&updates), None);
            assert!(
                hfl_tensor::ops::dist(&out, &[1.0, 2.0]) < 5.0,
                "P² dragged by outliers at shuffle {seed}: {out:?}"
            );
        }
    }

    #[test]
    fn reservoir_path_resists_minority_outliers() {
        let updates = cluster_with_outliers(&[0.0, 1.0], 0.2, 500, &[1e5, -1e5], 50);
        let st = StreamingTrimmedMean::new(0.2, 64);
        for seed in 0..3u64 {
            let perm = shuffled(&updates, seed);
            let out = st.aggregate(&refs(&perm), None);
            assert!(
                hfl_tensor::ops::dist(&out, &[0.0, 1.0]) < 0.5,
                "reservoir trim failed at shuffle {seed}: {out:?}"
            );
        }
    }

    #[test]
    fn reservoir_is_deterministic_per_arrival_order() {
        let updates = cluster_with_outliers(&[5.0], 1.0, 300, &[9.0], 0);
        let st = StreamingTrimmedMean::new(0.1, 32);
        let a = st.aggregate(&refs(&updates), None);
        let b = st.aggregate(&refs(&updates), None);
        assert_eq!(a, b);
    }

    #[test]
    fn sampled_krum_is_exact_below_the_cut() {
        let updates = cluster_with_outliers(&[1.0, 1.0], 0.1, 6, &[80.0, 80.0], 1);
        let got = SampledKrum::new(1, 16).aggregate(&refs(&updates), None);
        let want = Krum::new(1).aggregate(&refs(&updates), None);
        assert_eq!(got, want);
    }

    #[test]
    fn sampled_krum_buckets_resist_outliers() {
        // 97 honest + 3 adversarial inputs, 10 buckets of 10: at most 3
        // bucket means are corrupted, so clean buckets hold a strict
        // majority and Krum over the means must pick one of them
        // regardless of which buckets the shuffle poisons.
        let updates = cluster_with_outliers(&[2.0, -2.0], 0.2, 97, &[500.0, -500.0], 3);
        for seed in 0..3u64 {
            let perm = shuffled(&updates, seed);
            let out = SampledKrum::new(3, 10).aggregate(&refs(&perm), None);
            assert!(
                hfl_tensor::ops::dist(&out, &[2.0, -2.0]) < 5.0,
                "corrupted bucket selected at shuffle {seed}: {out:?}"
            );
        }
    }

    #[test]
    fn sampled_krum_bounds_tolerance_by_buckets() {
        let sk = SampledKrum::new(2, 11);
        assert_eq!(sk.max_byzantine(1000), 4); // (11 − 3) / 2
        assert_eq!(sk.max_byzantine(9), 3); // below the cut: (9 − 3) / 2
    }

    #[test]
    fn streaming_thresholds_are_clamped_positive() {
        let sm = StreamingMedian::new(0);
        assert_eq!(sm.exact_threshold(), 1);
        let st = StreamingTrimmedMean::new(0.0, 0);
        assert_eq!(st.exact_threshold(), 1);
    }

    #[test]
    fn p2_small_prefix_is_exact() {
        // Fewer than five observations: the estimator reports the exact
        // median of what it has seen.
        let rows = [[3.0f32, 4.0], [1.0, 1.0], [2.0, 2.0], [9.0, 3.0]];
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let sm = StreamingMedian::new(1);
        assert_eq!(sm.aggregate(&refs[..3], None), [2.0, 2.0]);
        assert_eq!(sm.aggregate(&refs, None), [2.5, 2.5]);
    }
}
