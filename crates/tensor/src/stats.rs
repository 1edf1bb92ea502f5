//! Coordinate-wise statistics over stacks of parameter vectors.
//!
//! These are the mathematical primitives behind the Median and Trimmed-Mean
//! Byzantine-robust aggregation rules and ALIE's honest spread: given `n`
//! model updates of dimension `d`, compute a per-coordinate statistic
//! across the `n` values of each of the `d` coordinates.

use crate::ops::at_current;

/// Coordinates per [`ColumnTile`] — the SIMD lanes of the coordinate-wise
/// kernels. Sixteen `i32` keys are one AVX-512 register, two AVX2
/// registers or four SSE2 registers per tile row.
pub const TILE_LANES: usize = 16;

/// Most rows the coordinate-wise kernels sort by network; past it each
/// column is gathered and sorted on its own. A stack budget (the tile is
/// 16 KB), not a crossover: on 650 columns the network beat the
/// per-column sort at every row count measured, ×14 at 8 rows and ×8 at
/// 256 at the widest width, ×6 and ×1.7 at the plain one, still ×1.4
/// there at 512 (DESIGN.md §15).
pub const NETWORK_MAX_ROWS: usize = 256;

/// Which order statistic of a column the coordinate-wise kernels take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnStat {
    /// The median; for an even count the `f32` mean of the two central
    /// values.
    Median,
    /// The mean, summed in ascending order in `f64`, of what is left
    /// after dropping the `trim` smallest and `trim` largest values.
    TrimmedMean {
        /// Values dropped from each tail; `2 * trim` is less than the
        /// row count.
        trim: usize,
    },
}

impl ColumnStat {
    /// The statistic of one column sorted ascending.
    fn of_sorted(self, col: &[f32]) -> f32 {
        let n = col.len();
        match self {
            ColumnStat::Median if n % 2 == 1 => col[n / 2],
            ColumnStat::Median => 0.5 * (col[n / 2 - 1] + col[n / 2]),
            ColumnStat::TrimmedMean { trim } => {
                let kept = &col[trim..n - trim];
                let sum = kept[1..].iter().fold(kept[0] as f64, |s, x| s + *x as f64);
                sum as f32 / kept.len() as f32
            }
        }
    }

    /// [`of_sorted`](Self::of_sorted) of every lane of a sorted tile:
    /// the same operations in the same order, a column per lane.
    #[inline(always)]
    fn of_sorted_tile<const R: usize>(self, tile: &ColumnTile<R>) -> [f32; TILE_LANES] {
        let n = tile.rows;
        match self {
            ColumnStat::Median if n % 2 == 1 => tile.row(n / 2),
            ColumnStat::Median => {
                let (mut mid, above) = (tile.row(n / 2 - 1), tile.row(n / 2));
                for (a, b) in mid.iter_mut().zip(above) {
                    *a = 0.5 * (*a + b);
                }
                mid
            }
            ColumnStat::TrimmedMean { trim } => {
                // The first kept row starts the sums, as it starts
                // `of_sorted`'s fold.
                let mut sum = [0.0f64; TILE_LANES];
                for (s, x) in sum.iter_mut().zip(tile.row(trim)) {
                    *s = x as f64;
                }
                for r in trim + 1..n - trim {
                    for (s, x) in sum.iter_mut().zip(tile.row(r)) {
                        *s += x as f64;
                    }
                }
                let mut mean = [0.0; TILE_LANES];
                for (m, s) in mean.iter_mut().zip(sum) {
                    *m = s as f32 / (n - 2 * trim) as f32;
                }
                mean
            }
        }
    }
}

/// [`TILE_LANES`] consecutive coordinates of up to `R` rows, a row of
/// the tile per input row and a coordinate per lane, so that one
/// compare-exchange of two tile rows orders sixteen columns at once.
///
/// The order is `f32::total_cmp`'s — −NaN < −∞ < … < −0.0 < +0.0 < … <
/// +∞ < +NaN — and the tile holds each value as the `i32` that compares
/// that way, so an exchange is one integer `min` and one `max` with no
/// branch on the data. NaNs sort to the tails, where a median or a trim
/// discards a minority of them. Values that compare equal as floats are
/// bit-identical except −0.0 and +0.0, which this order separates
/// (`partial_cmp` ties them, and an unstable sort then leaves their
/// order to the toolchain): a column holding both is the one input on
/// which a sort by `partial_cmp` can read a different bit.
#[repr(align(64))]
pub struct ColumnTile<const R: usize> {
    keys: [[i32; TILE_LANES]; R],
    rows: usize,
}

/// Coordinates `at..at + lanes` of `row` as one tile row, zeros in the
/// lanes past `lanes`.
///
/// # Panics
/// If `lanes > TILE_LANES` or `row` is shorter than `at + lanes`.
#[inline(always)]
pub fn tile_lanes(row: &[f32], at: usize, lanes: usize) -> [f32; TILE_LANES] {
    let coords = &row[at..at + lanes];
    <[f32; TILE_LANES]>::try_from(coords).unwrap_or_else(|_| {
        let mut short = [0.0; TILE_LANES];
        short[..lanes].copy_from_slice(coords);
        short
    })
}

/// The bits of an `f32` as the integer that orders like `f32::total_cmp`,
/// and back: the map is its own inverse.
#[inline(always)]
fn total_order_key(bits: i32) -> i32 {
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

impl<const R: usize> ColumnTile<R> {
    /// An empty tile.
    #[inline(always)]
    pub fn new() -> Self {
        Self {
            keys: [[0; TILE_LANES]; R],
            rows: 0,
        }
    }

    /// Replaces the tile by coordinates `at..at + lanes` of `rows`. The
    /// lanes past `lanes` hold zeros: they are sorted along and their
    /// results are the caller's to drop.
    ///
    /// # Panics
    /// If there are more than `R` rows, `lanes > TILE_LANES`, or a row
    /// is shorter than `at + lanes`.
    #[inline(always)]
    pub fn load<'a>(&mut self, rows: impl Iterator<Item = &'a [f32]>, at: usize, lanes: usize) {
        self.rows = 0;
        for row in rows {
            let keys = &mut self.keys[self.rows];
            for (k, x) in keys.iter_mut().zip(tile_lanes(row, at, lanes)) {
                *k = total_order_key(x.to_bits() as i32);
            }
            self.rows += 1;
        }
    }

    /// Sorts every lane ascending over the rows: Batcher's merge
    /// exchange (Knuth 5.2.2 M), whose exchanges depend on the row
    /// count alone — 9 for five rows, 19 for eight, 63 for sixteen.
    #[inline(always)]
    pub fn sort(&mut self) {
        let keys = &mut self.keys[..self.rows];
        let n = keys.len();
        if n < 2 {
            return;
        }
        let top = n.next_power_of_two() / 2;
        let mut p = top;
        while p > 0 {
            let (mut q, mut r, mut d) = (top, 0, p);
            loop {
                // Rows `i < n − d` with `i & p == r` against rows `i + d`:
                // runs of `p` rows every `2p`, the first at `r`.
                for run in (r..n - d).step_by(2 * p) {
                    let len = p.min(n - d - run);
                    let (below, above) = keys[run..].split_at_mut(d);
                    for (lo, hi) in below[..len].iter_mut().zip(&mut above[..len]) {
                        for (lo, hi) in lo.iter_mut().zip(hi) {
                            (*lo, *hi) = ((*lo).min(*hi), (*lo).max(*hi));
                        }
                    }
                }
                if q == p {
                    break;
                }
                (d, q, r) = (q - p, q / 2, p);
            }
            p /= 2;
        }
    }

    /// Row `r` of the tile, a value per lane.
    #[inline(always)]
    pub fn row(&self, r: usize) -> [f32; TILE_LANES] {
        let mut row = [0.0; TILE_LANES];
        for (x, k) in row.iter_mut().zip(self.keys[r]) {
            *x = f32::from_bits(total_order_key(k) as u32);
        }
        row
    }
}

impl<const R: usize> Default for ColumnTile<R> {
    fn default() -> Self {
        Self::new()
    }
}

/// The coordinate-wise kernel: `out[c]` is `stat` of the values the
/// rows hold at coordinate `at + c`. `rows` is iterated once per tile.
///
/// Up to [`NETWORK_MAX_ROWS`] rows go through [`ColumnTile`]s on the
/// stack and leave `col` alone; more are gathered into `col` and sorted
/// a column at a time, in the same total order. Either way a NaN cannot
/// panic the kernel, and `out` does not depend on which path or which
/// [`Width`](crate::ops::Width) ran.
///
/// # Panics
/// If `rows` is empty, a row is shorter than `at + out.len()`, or
/// `stat` trims every value away.
pub fn column_stat_into<'a, I>(
    stat: ColumnStat,
    rows: I,
    at: usize,
    out: &mut [f32],
    col: &mut Vec<f32>,
) where
    I: ExactSizeIterator<Item = &'a [f32]> + Clone,
{
    let n = rows.len();
    assert!(n > 0, "column statistic of no rows");
    assert!(
        rows.clone().all(|r| r.len() >= at + out.len()),
        "column statistic: row length mismatch"
    );
    if let ColumnStat::TrimmedMean { trim } = stat {
        assert!(2 * trim < n, "trim {trim} too large for {n} values");
    }
    at_current(
        #[inline(always)]
        |(stat, rows, at), out, col, _| column_stat_body(stat, rows, at, out, col),
        (stat, rows, at),
        out,
        col,
    )
}

/// The one body of [`column_stat_into`], inlined into the function of
/// each [`Width`](crate::ops::Width) it is run at.
#[inline(always)]
fn column_stat_body<'a, I>(
    stat: ColumnStat,
    rows: I,
    at: usize,
    out: &mut [f32],
    col: &mut Vec<f32>,
) where
    I: ExactSizeIterator<Item = &'a [f32]> + Clone,
{
    let n = rows.len();
    if n <= NETWORK_MAX_ROWS {
        let mut tile = ColumnTile::<NETWORK_MAX_ROWS>::new();
        for (t, o) in out.chunks_mut(TILE_LANES).enumerate() {
            tile.load(rows.clone(), at + t * TILE_LANES, o.len());
            tile.sort();
            o.copy_from_slice(&stat.of_sorted_tile(&tile)[..o.len()]);
        }
    } else {
        col.clear();
        col.resize(n, 0.0);
        for (j, o) in out.iter_mut().enumerate() {
            for (c, r) in col.iter_mut().zip(rows.clone()) {
                *c = r[at + j];
            }
            col.sort_unstable_by(f32::total_cmp);
            *o = stat.of_sorted(col);
        }
    }
}

/// Median of a scratch buffer (sorts in place, `f32::total_cmp` order).
/// For even lengths returns the average of the two central order
/// statistics, matching the usual statistical definition used by
/// coordinate-wise Median aggregation.
///
/// # Panics
/// On an empty buffer.
pub fn median_in_place(buf: &mut [f32]) -> f32 {
    assert!(!buf.is_empty(), "median of empty buffer");
    buf.sort_unstable_by(f32::total_cmp);
    ColumnStat::Median.of_sorted(buf)
}

/// Mean of the values that remain after removing the `trim` smallest and
/// `trim` largest entries (sorts the scratch buffer in place).
///
/// # Panics
/// If `2 * trim >= buf.len()` (nothing would remain) or the buffer is empty.
pub fn trimmed_mean_in_place(buf: &mut [f32], trim: usize) -> f32 {
    assert!(!buf.is_empty(), "trimmed mean of empty buffer");
    assert!(
        2 * trim < buf.len(),
        "trim {} too large for {} values",
        trim,
        buf.len()
    );
    buf.sort_unstable_by(f32::total_cmp);
    ColumnStat::TrimmedMean { trim }.of_sorted(buf)
}

/// Coordinate-wise median over `rows` (each of length `d`), written into
/// `out`.
pub fn coordinate_median(rows: &[&[f32]], out: &mut [f32]) {
    coordinate_median_into(rows, out, &mut Vec::new());
}

/// [`coordinate_median`] with a caller-owned column buffer, which only
/// more than [`NETWORK_MAX_ROWS`] rows use — allocation-free below that,
/// and above it once `col` reaches the row count.
pub fn coordinate_median_into(rows: &[&[f32]], out: &mut [f32], col: &mut Vec<f32>) {
    column_stat_into(ColumnStat::Median, rows.iter().copied(), 0, out, col);
}

/// Coordinate-wise `trim`-trimmed mean over `rows`, written into `out`.
pub fn coordinate_trimmed_mean(rows: &[&[f32]], trim: usize, out: &mut [f32]) {
    coordinate_trimmed_mean_into(rows, trim, out, &mut Vec::new());
}

/// [`coordinate_trimmed_mean`] with a caller-owned column buffer, used
/// as [`coordinate_median_into`] uses it.
pub fn coordinate_trimmed_mean_into(
    rows: &[&[f32]],
    trim: usize,
    out: &mut [f32],
    col: &mut Vec<f32>,
) {
    let stat = ColumnStat::TrimmedMean { trim };
    column_stat_into(stat, rows.iter().copied(), 0, out, col);
}

/// Coordinates per tile of [`column_var_into`]: the tile's means are
/// 4 KB of stack, and a tile of 205 rows (`agg_wide`'s honest set) is
/// 410 KB of input, which the second pass reads back from L2.
const VAR_TILE: usize = 512;

/// Rows one step of [`column_var_into`] adds into its accumulators
/// before storing them: each accumulator is loaded and stored once per
/// four rows instead of once per row.
const VAR_ROWS: usize = 4;

/// Population variance of every coordinate: `out[c] = Σ (x − μ)² / n`
/// over the `n` values the rows hold at coordinate `at + c`, where `μ =
/// Σ x / n`. Each sum is taken in `f64`, in row order, from −0.0 (where
/// `Iterator::sum` starts) — the operations a gather of the column into
/// a scalar mean-and-variance loop performs, so each output has that
/// loop's bits.
///
/// The lanes are coordinates: the rows are streamed row-major, twice per
/// tile of up to `VAR_TILE` coordinates — `Σ x` into `f64` accumulators
/// on the stack, then `Σ (x − μ)²` into `out` — and one SIMD add serves
/// as many columns as the register holds, each column still adding its
/// rows in order. No product is fused: `x − μ` is an inexact `f64`, so
/// its square rounds. The body runs at
/// [`Width::current`](crate::ops::Width::current).
///
/// # Panics
/// If `rows` is empty or a row is shorter than `at + out.len()`.
pub fn column_var_into(rows: &[&[f32]], at: usize, out: &mut [f64]) {
    assert!(!rows.is_empty(), "column variance of no rows");
    assert!(
        rows.iter().all(|r| r.len() >= at + out.len()),
        "column variance: row length mismatch"
    );
    at_current(
        #[inline(always)]
        |(rows, at), out, (), _| column_var_body(rows, at, out),
        (rows, at),
        out,
        (),
    )
}

/// The one body of [`column_var_into`], inlined into the function of
/// each [`Width`](crate::ops::Width) it is run at.
#[inline(always)]
fn column_var_body(rows: &[&[f32]], at: usize, out: &mut [f64]) {
    let n = rows.len() as f64;
    let mut mean = [0.0f64; VAR_TILE];
    for (t, var) in out.chunks_mut(VAR_TILE).enumerate() {
        let (c0, w) = (at + t * VAR_TILE, var.len());
        let mean = &mut mean[..w];
        mean.fill(-0.0);
        let mut blocks = rows.chunks_exact(VAR_ROWS);
        for block in &mut blocks {
            let (r0, r1) = (&block[0][c0..c0 + w], &block[1][c0..c0 + w]);
            let (r2, r3) = (&block[2][c0..c0 + w], &block[3][c0..c0 + w]);
            for c in 0..w {
                let mut s = mean[c];
                s += r0[c] as f64;
                s += r1[c] as f64;
                s += r2[c] as f64;
                s += r3[c] as f64;
                mean[c] = s;
            }
        }
        for r in blocks.remainder() {
            let r = &r[c0..c0 + w];
            for c in 0..w {
                mean[c] += r[c] as f64;
            }
        }
        for m in mean.iter_mut() {
            *m /= n;
        }
        var.fill(-0.0);
        let mut blocks = rows.chunks_exact(VAR_ROWS);
        for block in &mut blocks {
            let (r0, r1) = (&block[0][c0..c0 + w], &block[1][c0..c0 + w]);
            let (r2, r3) = (&block[2][c0..c0 + w], &block[3][c0..c0 + w]);
            for c in 0..w {
                let mut s = var[c];
                let e = r0[c] as f64 - mean[c];
                s += e * e;
                let e = r1[c] as f64 - mean[c];
                s += e * e;
                let e = r2[c] as f64 - mean[c];
                s += e * e;
                let e = r3[c] as f64 - mean[c];
                s += e * e;
                var[c] = s;
            }
        }
        for r in blocks.remainder() {
            let r = &r[c0..c0 + w];
            for c in 0..w {
                let e = r[c] as f64 - mean[c];
                var[c] += e * e;
            }
        }
        for v in var.iter_mut() {
            *v /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{with_width, Width};

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median_in_place(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_in_place(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_in_place(&mut [5.0]), 5.0);
    }

    #[test]
    fn median_ignores_one_huge_outlier() {
        // Robustness: a single adversarial value cannot move the median
        // outside the honest range.
        let m = median_in_place(&mut [1.0, 2.0, 3.0, 1e9]);
        assert!((1.0..=3.0).contains(&m));
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        let tm = trimmed_mean_in_place(&mut [-1e9, 1.0, 2.0, 3.0, 1e9], 1);
        assert!((tm - 2.0).abs() < 1e-6);
    }

    #[test]
    fn trimmed_mean_zero_trim_is_mean() {
        let tm = trimmed_mean_in_place(&mut [1.0, 2.0, 3.0], 0);
        assert!((tm - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn over_trim_panics() {
        trimmed_mean_in_place(&mut [1.0, 2.0], 1);
    }

    #[test]
    fn coordinate_median_per_column() {
        let r1 = [1.0f32, 10.0];
        let r2 = [2.0f32, 20.0];
        let r3 = [3.0f32, 1e9];
        let mut out = [0.0f32; 2];
        coordinate_median(&[&r1, &r2, &r3], &mut out);
        assert_eq!(out, [2.0, 20.0]);
    }

    #[test]
    fn coordinate_trimmed_mean_per_column() {
        let r1 = [0.0f32, -1e9];
        let r2 = [2.0f32, 5.0];
        let r3 = [4.0f32, 7.0];
        let r4 = [6.0f32, 9.0];
        let r5 = [1e9f32, 1e9];
        let mut out = [0.0f32; 2];
        coordinate_trimmed_mean(&[&r1, &r2, &r3, &r4, &r5], 1, &mut out);
        assert_eq!(out, [4.0, 7.0]);
    }

    /// The 0–1 principle: a network that sorts every 0/1 column sorts
    /// every column. All 2ⁿ of them for n ≤ 10, sixteen to a tile.
    #[test]
    fn column_tile_sorts_every_zero_one_column() {
        for n in 1..=10usize {
            for first in (0..1u32 << n).step_by(TILE_LANES) {
                let rows: Vec<[f32; TILE_LANES]> = (0..n)
                    .map(|r| std::array::from_fn(|w| ((first + w as u32) >> r & 1) as f32))
                    .collect();
                let mut tile = ColumnTile::<10>::new();
                tile.load(rows.iter().map(|r| r.as_slice()), 0, TILE_LANES);
                tile.sort();
                assert_eq!(tile.rows, n);
                for w in 0..TILE_LANES {
                    // Lanes past the last column repeat earlier ones.
                    let ones = ((first + w as u32) & ((1 << n) - 1)).count_ones() as usize;
                    for r in 0..n {
                        let want = if r < n - ones { 0.0 } else { 1.0 };
                        assert_eq!(tile.row(r)[w], want, "n={n} column {:#b}", first + w as u32);
                    }
                }
            }
        }
    }

    #[test]
    fn column_tile_orders_like_total_cmp() {
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 2.0,
            -1.5,
            3.0e38,
        ];
        // Lane `w` holds the specials rotated by `w`.
        let rows: Vec<[f32; TILE_LANES]> = (0..specials.len())
            .map(|r| std::array::from_fn(|w| specials[(r + w) % specials.len()]))
            .collect();
        let mut tile = ColumnTile::<9>::new();
        tile.load(rows.iter().map(|r| r.as_slice()), 0, TILE_LANES);
        tile.sort();
        let mut want = specials;
        want.sort_unstable_by(f32::total_cmp);
        for (r, want) in want.iter().enumerate() {
            for x in tile.row(r) {
                assert_eq!(x.to_bits(), want.to_bits(), "row {r}");
            }
        }
    }

    /// A NaN minority — either sign, so both tails — moves no median,
    /// and a trim that covers it leaves the mean finite; on the network
    /// path and on the per-column sort past it.
    #[test]
    fn nan_minority_is_discarded_not_a_panic() {
        for n in [3usize, 8, 9, NETWORK_MAX_ROWS + 3] {
            let bad = (n - 1) / 2;
            let rows: Vec<Vec<f32>> = (0..n)
                .map(|r| match r {
                    r if r < bad && r % 2 == 0 => vec![f32::NAN; 20],
                    r if r < bad => vec![-f32::NAN; 20],
                    r => (0..20).map(|c| (r * 20 + c) as f32).collect(),
                })
                .collect();
            let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
            let mut out = [0.0f32; 20];
            coordinate_median(&refs, &mut out);
            assert!(out.iter().all(|x| x.is_finite()), "n={n}: {out:?}");
            coordinate_trimmed_mean(&refs, bad, &mut out);
            assert!(out.iter().all(|x| x.is_finite()), "n={n}: {out:?}");
        }
        assert!(median_in_place(&mut [1.0, f32::NAN, 2.0]).is_finite());
        assert!(trimmed_mean_in_place(&mut [1.0, f32::NAN, 2.0, -f32::NAN, 3.0], 1).is_finite());
    }

    #[test]
    fn short_last_tile_and_offset_read_the_right_columns() {
        // 37 coordinates: two full tiles and five lanes; `at` skips three.
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|r| (0..40).map(|c| ((r * 7 + c * 3) % 11) as f32).collect())
            .collect();
        let mut got = [0.0f32; 37];
        let stat = ColumnStat::TrimmedMean { trim: 1 };
        column_stat_into(
            stat,
            rows.iter().map(|r| r.as_slice()),
            3,
            &mut got,
            &mut Vec::new(),
        );
        for (j, g) in got.iter().enumerate() {
            let mut col: Vec<f32> = rows.iter().map(|r| r[3 + j]).collect();
            assert_eq!(*g, trimmed_mean_in_place(&mut col, 1), "coordinate {j}");
        }
    }

    /// Each compiled width the host has against the plain one, exact
    /// bits (NaN rows included — lane `k` does the same integer and IEEE
    /// operations at any width): tiles short, exact and several, the
    /// network and the per-column sort, both statistics.
    #[test]
    fn column_stat_reads_the_same_bits_at_every_width() {
        let mut ran = Vec::new();
        for n in [1usize, 2, 5, 8, 33, NETWORK_MAX_ROWS + 1] {
            for d in [1usize, 15, 16, 17, 100] {
                let rows: Vec<Vec<f32>> = (0..n)
                    .map(|r| {
                        (0..d)
                            .map(|c| {
                                let h = ((r * 131 + c) as u32).wrapping_mul(0x9e37_79b9);
                                match h >> 28 {
                                    0 => f32::from_bits(0x7fc0_0000 | (h & 0x8000_0000)),
                                    1 => f32::INFINITY,
                                    2 => (h & 7) as f32 - 4.0,
                                    _ => f32::from_bits((h & 0x80ff_ffff) | 0x3e00_0000),
                                }
                            })
                            .collect()
                    })
                    .collect();
                let rows = rows.iter().map(|r| r.as_slice());
                for stat in [
                    ColumnStat::Median,
                    ColumnStat::TrimmedMean { trim: (n - 1) / 3 },
                ] {
                    let run = |width: Width| {
                        let mut out = vec![f32::NAN; d];
                        with_width(width, || {
                            column_stat_into(stat, rows.clone(), 0, &mut out, &mut Vec::new())
                        })
                        .map(|()| out.iter().map(|x| x.to_bits()).collect::<Vec<u32>>())
                    };
                    let plain = run(Width::Plain).expect("runs anywhere");
                    for width in Width::ALL {
                        let Some(got) = run(width) else { continue };
                        assert_eq!(got, plain, "{width:?} {stat:?} n={n} d={d}");
                        if !ran.contains(&width) {
                            ran.push(width);
                        }
                    }
                }
            }
        }
        println!("column_stat widths run on this host: {ran:?}");
    }

    #[test]
    fn column_var_basics() {
        let rows = [[1.0f32, 5.0, -0.0], [2.0, 5.0, -0.0], [3.0, 5.0, -0.0]];
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut out = [f64::NAN; 2];
        column_var_into(&refs, 1, &mut out);
        assert_eq!(out, [0.0, 0.0]);
        let mut out = [f64::NAN; 3];
        column_var_into(&refs, 0, &mut out);
        assert_eq!(out[0], 2.0 / 3.0);
    }

    /// Each compiled width the host has against the plain one, exact
    /// bits: tiles short, exact and several, every remainder of the
    /// four-row blocks, and an offset.
    #[test]
    fn column_var_reads_the_same_bits_at_every_width() {
        let mut ran = Vec::new();
        for n in [1usize, 3, 4, 5, 9] {
            for d in [1usize, 15, VAR_TILE, VAR_TILE + 17] {
                let rows: Vec<Vec<f32>> = (0..n)
                    .map(|r| {
                        (0..d + 3)
                            .map(|c| {
                                let h = ((r * 131 + c) as u32).wrapping_mul(0x9e37_79b9);
                                f32::from_bits((h & 0x80ff_ffff) | (0x3c00_0000 + (h >> 28 << 23)))
                            })
                            .collect()
                    })
                    .collect();
                let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
                let run = |width: Width| {
                    let mut out = vec![f64::NAN; d];
                    with_width(width, || column_var_into(&refs, 3, &mut out))
                        .map(|()| out.iter().map(|x| x.to_bits()).collect::<Vec<u64>>())
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
        println!("column_var widths run on this host: {ran:?}");
    }
}
