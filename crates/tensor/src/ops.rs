//! Flat-slice kernels: the inner loops of the whole system.
//!
//! All functions operate on `&[f32]` / `&mut [f32]` so they can be applied
//! to model parameter vectors, gradients, and matrix rows alike.

use crate::check_same_len;

/// `y += alpha * x` (the classic BLAS `axpy`). This is the SGD update and
/// the inner loop of weighted model averaging.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    check_same_len(x, y);
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * *xi;
    }
}

/// `y = alpha * x + beta * y` — the linear local/global model combiner of
/// ABD-HFL Eq. (1) with `alpha = correction factor`, `beta = 1 - alpha`.
#[inline]
pub fn axpby(alpha: f32, x: &[f32], beta: f32, y: &mut [f32]) {
    check_same_len(x, y);
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = alpha * *xi + beta * *yi;
    }
}

/// `x *= alpha` in place.
#[inline]
pub fn scale(alpha: f32, x: &mut [f32]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Element-wise `y += x`.
#[inline]
pub fn add_assign(x: &[f32], y: &mut [f32]) {
    check_same_len(x, y);
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += *xi;
    }
}

/// Element-wise `y -= x`.
#[inline]
pub fn sub_assign(x: &[f32], y: &mut [f32]) {
    check_same_len(x, y);
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi -= *xi;
    }
}

/// Dot product. Accumulates in `f64` for stability over long vectors
/// (parameter vectors routinely have 10⁴–10⁶ coordinates).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    check_same_len(a, b);
    let mut acc = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        acc += (*x as f64) * (*y as f64);
    }
    acc
}

/// Most rows [`affine_rows`] runs in lockstep: eight `f64` accumulators
/// plus the shared `x` operand stay in registers, and eight independent
/// add chains are enough to hide the add latency a single `dot` chain
/// waits on.
const AFFINE_LANES: usize = 8;

/// Dense layer `out[r] = dot(w_r, x) as f32 + bias[r]` for a single
/// input, `w` row-major as the parameters are stored, one
/// `x.len()`-long row per output. Several inputs under one `w` go
/// through a [`Panel`] instead ([`forward_block`]); one input has
/// nothing to amortise a panel refill over.
///
/// Rows are processed in lockstep blocks: every row keeps its own `f64`
/// accumulator and visits coordinates in index order exactly as [`dot`]
/// does, so each `out[r]` is bitwise what the per-row `dot` loop
/// produces — the blocks only let independent add chains overlap
/// instead of running one latency-bound chain at a time. Blocks are
/// sized evenly (10 rows run as 5 + 5, not 8 + 2) so no block is left
/// with too few chains to overlap.
pub fn affine_rows(w: &[f32], bias: &[f32], x: &[f32], out: &mut [f32]) {
    let rows = out.len();
    assert_eq!(bias.len(), rows, "affine_rows: bias/out length mismatch");
    assert_eq!(
        w.len(),
        rows * x.len(),
        "affine_rows: weight shape mismatch"
    );
    let d = x.len();
    for (r, lanes) in even_blocks(rows, AFFINE_LANES) {
        let (w, bias, out) = (
            &w[r * d..(r + lanes) * d],
            &bias[r..r + lanes],
            &mut out[r..r + lanes],
        );
        match lanes {
            1 => affine_block::<1>(w, bias, x, out),
            2 => affine_block::<2>(w, bias, x, out),
            3 => affine_block::<3>(w, bias, x, out),
            4 => affine_block::<4>(w, bias, x, out),
            5 => affine_block::<5>(w, bias, x, out),
            6 => affine_block::<6>(w, bias, x, out),
            7 => affine_block::<7>(w, bias, x, out),
            _ => affine_block::<AFFINE_LANES>(w, bias, x, out),
        }
    }
}

/// `rows` split into the fewest blocks of at most `max` rows, sized
/// evenly: `(first row, row count)` per block, in row order.
fn even_blocks(rows: usize, max: usize) -> impl Iterator<Item = (usize, usize)> {
    let blocks = rows.div_ceil(max);
    let mut r = 0;
    (0..blocks).map(move |b| {
        let lanes = (rows - r).div_ceil(blocks - b);
        r += lanes;
        (r - lanes, lanes)
    })
}

/// One lockstep block of [`affine_rows`]: `L` rows, `L` accumulators.
#[inline]
fn affine_block<const L: usize>(w: &[f32], bias: &[f32], x: &[f32], out: &mut [f32]) {
    let d = x.len();
    // `[..d]` pins every row's length to `x.len()`, so `row[c]` below
    // needs no bounds check.
    let rows: [&[f32]; L] = std::array::from_fn(|l| &w[l * d..][..d]);
    let mut acc = [0.0f64; L];
    for (c, xc) in x.iter().enumerate() {
        let xc = *xc as f64;
        for (a, row) in acc.iter_mut().zip(&rows) {
            *a += row[c] as f64 * xc;
        }
    }
    for ((o, a), b) in out.iter_mut().zip(acc).zip(bias) {
        *o = a as f32 + *b;
    }
}

/// Most output rows one [`Panel`] tile holds: sixteen `f64`
/// accumulators for each of four inputs are eight of AVX-512's 32
/// registers, which leaves room for the broadcast inputs and the column
/// load. Narrower widths have 16 registers, which sixteen lanes would
/// fill or overflow: a panel filled for them stops at eight.
const PANEL_LANES: usize = 16;

/// `acc + a · b` for `a`, `b` widened from `f32` — the one place a
/// product is fused into its sum. Two 24-bit significands multiply to at
/// most 48 bits, with an exponent in [−298, 256]: the product is exact
/// in `f64`, so `fl(fl(a·b) + acc)` and `fl(a·b + acc)` round the same
/// real number once and agree in every bit for every non-NaN operand
/// (subnormals, `f32::MAX²`, `±∞` and `∞ · 0` included; a NaN stays a
/// NaN of unspecified payload). No other product in this crate is exact
/// — [`axpy`] and [`rank_update`] multiply in `f32` — so nothing else
/// may fuse. `fused` is [`Width::run`]'s flag: one `vfmadd` where `fma`
/// is enabled (without it the fused form is a libm call).
#[inline(always)]
fn add_exact_product(fused: bool, acc: f64, a: f64, b: f64) -> f64 {
    if fused {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// `n` as a sum of powers of two, largest first and none above `max`
/// (a power of two itself): `(offset, size)` per term, in order — 10
/// under 16 is 8 + 2, 64 is 4 × 16, 19 is 16 + 2 + 1. Fixed-size
/// arrays of these sizes are what the tile kernels below hold in
/// registers: a power of two always fills whole vectors of some width.
fn binary_blocks(n: usize, max: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut at = 0;
    std::iter::from_fn(move || {
        (at < n).then(|| {
            let size = max.min(1 << (n - at).ilog2());
            at += size;
            (at - size, size)
        })
    })
}

/// A dense layer's weights prepared for [`forward_block`]: widened to
/// `f64` once and stored feature-major, so the operands of one
/// coordinate step — the same coordinate of every output row — are
/// adjacent in memory instead of one row length apart.
///
/// Rows are split into tiles of a power-of-two lane count, at most
/// [`PANEL_LANES`] ([`binary_blocks`]: 10 rows → 8 + 2, 40 → 16 + 16 +
/// 8, 64 → 4 × 16, 19 → 16 + 2 + 2, a single last row sharing its tile
/// with a lane of zeros); the buffer is laid out
/// `[tile][coordinate][lane]`, i.e. a tile of `L` lanes starting at row
/// `r` occupies `data[r * cols..(r + L) * cols]` as `cols` groups of
/// `L` lanes. Widening is exact, so a panel holds the very values the
/// `f32` rows do.
///
/// A panel is a pure function of the weights it was last
/// [`fill`](Panel::fill)ed from; refilling reuses the buffer, so a
/// panel that has grown to its layer's size allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct Panel {
    rows: usize,
    cols: usize,
    /// The tile cap of the last fill.
    lanes: usize,
    data: Vec<f64>,
}

impl Panel {
    /// Overwrites the panel with the row-major `rows × cols` matrices
    /// `mats` stacked in order — `mats.len() · rows` output rows, tiled
    /// as one matrix, so several models' layers go through
    /// [`forward_block`] in one pass over the inputs.
    pub fn fill<'a, M>(&mut self, mats: M, rows: usize, cols: usize)
    where
        M: IntoIterator<Item = &'a [f32]>,
        M::IntoIter: ExactSizeIterator,
    {
        self.fill_at(Width::widest(), mats, rows, cols)
    }

    /// [`Panel::fill`] tiled for `width` instead of the one
    /// [`forward_block`] runs at (which runs tiles of any size) — for
    /// the differential tests.
    #[doc(hidden)]
    pub fn fill_at<'a, M>(&mut self, width: Width, mats: M, rows: usize, cols: usize)
    where
        M: IntoIterator<Item = &'a [f32]>,
        M::IntoIter: ExactSizeIterator,
    {
        let mats = mats.into_iter();
        let wide = width == Width::Avx512;
        (self.rows, self.cols) = (mats.len() * rows, cols);
        self.lanes = if wide { PANEL_LANES } else { PANEL_LANES / 2 };
        // No `clear`: every element is overwritten below, so only a
        // growing panel pays for a zero-fill, and only of its new tail.
        self.data.resize(self.rows.next_multiple_of(2) * cols, 0.0);
        // Tiles and lanes are visited in row order, so the rows are
        // taken as they come: no matrix is copied to sit beside the next.
        let mut source = mats.flat_map(|m| {
            assert_eq!(m.len(), rows * cols, "Panel::fill: weight shape mismatch");
            (0..rows).map(move |r| &m[r * cols..(r + 1) * cols])
        });
        for (r, lanes) in self.tiles() {
            let tile = &mut self.data[r * cols..(r + lanes) * cols];
            for l in 0..lanes {
                match source.next() {
                    Some(row) => {
                        for (group, v) in tile.chunks_exact_mut(lanes).zip(row) {
                            group[l] = *v as f64;
                        }
                    }
                    // The lane beside a single last row.
                    None => tile
                        .chunks_exact_mut(lanes)
                        .for_each(|group| group[l] = 0.0),
                }
            }
        }
    }

    /// `(first row, lanes)` per tile, in storage order.
    fn tiles(&self) -> impl Iterator<Item = (usize, usize)> {
        binary_blocks(self.rows, self.lanes).map(|(r, lanes)| (r, lanes.max(2)))
    }
}

/// Inputs one tile pass of [`forward_block`] carries in lock step.
const BLOCK_INPUTS: usize = 4;

/// Dense layer over a filled [`Panel`] for a block of inputs:
/// `out[s * rows + r] = dot(w_r, xs[s]) as f32 + bias[r]` — the kernel
/// for callers that apply one weight matrix to several inputs.
///
/// Per tile of `L` lanes the inner loop is `acc_k[l] += col[l] *
/// x_k[c]` for [`BLOCK_INPUTS`] inputs `k` at once over one contiguous
/// group of `L` lanes: every (input, row) pair keeps its own `f64`
/// accumulator and visits coordinates in index order exactly as [`dot`]
/// does (nothing reassociated; the product is exact, so fusing it into
/// the add rounds the same — [`add_exact_product`]), so each output is
/// bitwise what the per-row `dot` loop produces. The
/// lanes of one SIMD register are *rows*, as the panel lays them out;
/// the four inputs give every coordinate step four times the
/// independent add chains of a single input — whose one or two wait on
/// the add latency at any width past SSE2 — and each column group is
/// loaded once for four inputs. A last group of one to three inputs
/// runs the same body with its last input repeated and the repeats
/// dropped.
///
/// The body is compiled at every [`Width`] and runs at the widest.
///
/// # Panics
/// If an input's length is not the panel's column count, or `bias` /
/// `out` do not match its row count.
pub fn forward_block(panel: &Panel, bias: &[f32], xs: &[&[f32]], out: &mut [f32]) {
    forward_block_at(Width::widest(), panel, bias, xs, out).expect("the width was just detected")
}

/// [`forward_block`] compiled at `width`, or `None` when the CPU lacks
/// it — for the differential tests, which reach the widths the
/// dispatch passes over on the host.
#[doc(hidden)]
pub fn forward_block_at(
    width: Width,
    panel: &Panel,
    bias: &[f32],
    xs: &[&[f32]],
    out: &mut [f32],
) -> Option<()> {
    assert_eq!(
        bias.len(),
        panel.rows,
        "forward_block: bias length mismatch"
    );
    assert_eq!(
        out.len(),
        xs.len() * panel.rows,
        "forward_block: output length mismatch"
    );
    for x in xs {
        assert_eq!(x.len(), panel.cols, "forward_block: input length mismatch");
    }
    width.run(
        #[inline(always)]
        |(panel, bias, xs), out, (), fused| forward_body(panel, bias, xs, out, fused),
        (panel, bias, xs),
        out,
        (),
    )
}

/// The one body of [`forward_block`], inlined into the function of each
/// [`Width`] it is run at. Tiles outermost: a tile stays in L1 while
/// every input group streams past it.
#[inline(always)]
fn forward_body(panel: &Panel, bias: &[f32], xs: &[&[f32]], out: &mut [f32], fused: bool) {
    let (rows, d) = (panel.rows, panel.cols);
    for (r, lanes) in panel.tiles() {
        let (tile, bias) = (&panel.data[r * d..(r + lanes) * d], &bias[r..]);
        for (g, group) in xs.chunks(BLOCK_INPUTS).enumerate() {
            let last = group.len() - 1;
            let quad = [
                group[0],
                group[1.min(last)],
                group[2.min(last)],
                group[3.min(last)],
            ];
            let out = &mut out[g * BLOCK_INPUTS * rows + r..];
            match lanes {
                2 => panel_tile::<2>(tile, bias, quad, group.len(), rows, out, fused),
                4 => panel_tile::<4>(tile, bias, quad, group.len(), rows, out, fused),
                8 => panel_tile::<8>(tile, bias, quad, group.len(), rows, out, fused),
                _ => panel_tile::<PANEL_LANES>(tile, bias, quad, group.len(), rows, out, fused),
            }
        }
    }
}

/// One tile of [`forward_block`] under four inputs: `L` lanes, `4 · L`
/// accumulators, one `[f64; L]` column group per coordinate. Input `k`
/// of the first `live` writes its rows — as many of the `L` as `bias`
/// and the `stride`-long output row still hold — to `out[k * stride..]`.
///
/// The accumulators are four *named* arrays on purpose: as one
/// `[[f64; L]; 4]` under a loop over the inputs they are left in
/// memory and the loop is scalar, or vectorised across the inputs with
/// gathers (DESIGN.md §15).
#[inline(always)]
fn panel_tile<const L: usize>(
    tile: &[f64],
    bias: &[f32],
    [x0, x1, x2, x3]: [&[f32]; BLOCK_INPUTS],
    live: usize,
    stride: usize,
    out: &mut [f32],
    fused: bool,
) {
    let (mut a0, mut a1, mut a2, mut a3) = ([0.0f64; L], [0.0f64; L], [0.0f64; L], [0.0f64; L]);
    let (cols, _) = tile.as_chunks::<L>();
    for ((((col, v0), v1), v2), v3) in cols.iter().zip(x0).zip(x1).zip(x2).zip(x3) {
        let (v0, v1, v2, v3) = (*v0 as f64, *v1 as f64, *v2 as f64, *v3 as f64);
        for l in 0..L {
            a0[l] = add_exact_product(fused, a0[l], col[l], v0);
        }
        for l in 0..L {
            a1[l] = add_exact_product(fused, a1[l], col[l], v1);
        }
        for l in 0..L {
            a2[l] = add_exact_product(fused, a2[l], col[l], v2);
        }
        for l in 0..L {
            a3[l] = add_exact_product(fused, a3[l], col[l], v3);
        }
    }
    for (k, acc) in [a0, a1, a2, a3].iter().enumerate().take(live) {
        for ((o, a), b) in out[k * stride..].iter_mut().zip(acc).zip(bias) {
            *o = *a as f32 + *b;
        }
    }
}

/// Most columns of one gradient tile of [`rank_update`]: two rows of
/// 32 `f32` are four AVX-512 registers, eight AVX2 or sixteen SSE2 —
/// accumulators that rest in registers across a whole block of inputs
/// at any of them, with enough independent add chains to hide the add
/// latency.
const RANK_COLS: usize = 32;

/// Rank-`S` update of a row-major `rows × cols` gradient from a block
/// of `S` inputs: `grad[r][c] += coeff[s * rows + r] * xs[s][c]` for
/// `s` in order — what one [`axpy`] per (input, row) computes, bit for
/// bit: each gradient entry sees the same `f32` multiply-then-add
/// chain in the same input order. With `skip_zero`, a coefficient that
/// is exactly zero adds nothing (the entry keeps its bits, `-0.0` and
/// a non-finite input included), as a loop that skips the `axpy` does;
/// without, the product is added like any other.
///
/// What changes is the traffic: a tile of two rows by at most
/// [`RANK_COLS`] columns of `grad` is loaded once, updated by every
/// input of the block and stored once, where the `axpy` loop loads and
/// stores a gradient row per (input, row).
///
/// The body is compiled at every [`Width`] and runs at the widest; a
/// single input takes the `axpy` loop itself.
///
/// # Panics
/// If the inputs differ in length, or `coeff` / `grad` do not hold
/// `xs.len() × rows` / `rows × cols` values.
pub fn rank_update(grad: &mut [f32], coeff: &[f32], xs: &[&[f32]], skip_zero: bool) {
    if let [x] = xs {
        // A block of one keeps nothing resident across inputs: the
        // definition is the kernel, without the dispatch (a sampled
        // population's clients hold one sample each).
        assert_eq!(
            grad.len(),
            coeff.len() * x.len(),
            "rank_update: gradient shape mismatch"
        );
        for (row, a) in grad.chunks_exact_mut(x.len().max(1)).zip(coeff) {
            if !(skip_zero && *a == 0.0) {
                axpy(*a, x, row);
            }
        }
        return;
    }
    rank_update_at(Width::widest(), grad, coeff, xs, skip_zero)
        .expect("the width was just detected")
}

/// [`rank_update`] compiled at `width`, or `None` when the CPU lacks it
/// (see [`forward_block_at`]).
#[doc(hidden)]
pub fn rank_update_at(
    width: Width,
    grad: &mut [f32],
    coeff: &[f32],
    xs: &[&[f32]],
    skip_zero: bool,
) -> Option<()> {
    let Some(first) = xs.first() else {
        assert!(coeff.is_empty(), "rank_update: coefficients without inputs");
        return Some(());
    };
    for x in xs {
        check_same_len(first, x);
    }
    assert_eq!(
        coeff.len() % xs.len(),
        0,
        "rank_update: coefficient count is not a multiple of the inputs"
    );
    assert_eq!(
        grad.len(),
        coeff.len() / xs.len() * first.len(),
        "rank_update: gradient shape mismatch"
    );
    width.run(
        #[inline(always)]
        |(coeff, xs, skip_zero), grad, (), _| rank_body(coeff, xs, skip_zero, grad),
        (coeff, xs, skip_zero),
        grad,
        (),
    )
}

/// The one body of [`rank_update`], inlined into the function of each
/// [`Width`] it is run at: two rows at a time (a single last row takes
/// the place of both and is stored once), columns in power-of-two
/// tiles, so no tile is ragged.
#[inline(always)]
fn rank_body(coeff: &[f32], xs: &[&[f32]], skip_zero: bool, grad: &mut [f32]) {
    let (rows, cols) = (coeff.len() / xs.len(), xs[0].len());
    for r in (0..rows).step_by(2) {
        let pair = [r, (r + 1).min(rows - 1)];
        for (c, w) in binary_blocks(cols, RANK_COLS) {
            match w {
                1 => rank_tile::<1>(coeff, rows, pair, xs, c, skip_zero, grad),
                2 => rank_tile::<2>(coeff, rows, pair, xs, c, skip_zero, grad),
                4 => rank_tile::<4>(coeff, rows, pair, xs, c, skip_zero, grad),
                8 => rank_tile::<8>(coeff, rows, pair, xs, c, skip_zero, grad),
                16 => rank_tile::<16>(coeff, rows, pair, xs, c, skip_zero, grad),
                _ => rank_tile::<RANK_COLS>(coeff, rows, pair, xs, c, skip_zero, grad),
            }
        }
    }
}

/// One gradient tile of [`rank_update`]: columns `c..c + W` of the two
/// rows `pair`, every input innermost.
///
/// Two *named* row accumulators, not an array of rows: `[[f32; W]; R]`
/// under a loop over the rows is left in memory, and every input's
/// update then waits on the store before it (DESIGN.md §15).
#[inline(always)]
fn rank_tile<const W: usize>(
    coeff: &[f32],
    rows: usize,
    [r0, r1]: [usize; 2],
    xs: &[&[f32]],
    c: usize,
    skip_zero: bool,
    grad: &mut [f32],
) {
    let cols = xs[0].len();
    let (at0, at1) = (r0 * cols + c, r1 * cols + c);
    let (mut g0, mut g1) = ([0.0f32; W], [0.0f32; W]);
    g0.copy_from_slice(&grad[at0..at0 + W]);
    g1.copy_from_slice(&grad[at1..at1 + W]);
    for (s, x) in xs.iter().enumerate() {
        let x = &x[c..c + W];
        let (a0, a1) = (coeff[s * rows + r0], coeff[s * rows + r1]);
        if !(skip_zero && a0 == 0.0) {
            for j in 0..W {
                g0[j] += a0 * x[j];
            }
        }
        if !(skip_zero && a1 == 0.0) {
            for j in 0..W {
                g1[j] += a1 * x[j];
            }
        }
    }
    grad[at1..at1 + W].copy_from_slice(&g1);
    grad[at0..at0 + W].copy_from_slice(&g0);
}

/// Squared Euclidean norm (f64 accumulator).
#[inline]
pub fn norm_sq(a: &[f32]) -> f64 {
    let mut acc = 0.0f64;
    for x in a {
        let v = *x as f64;
        acc += v * v;
    }
    acc
}

/// Euclidean norm.
#[inline]
pub fn norm(a: &[f32]) -> f64 {
    norm_sq(a).sqrt()
}

/// Squared Euclidean distance between two vectors — the kernel of Krum's
/// pairwise score matrix.
///
/// A NaN result (adversarial NaN coordinates, or same-signed infinities
/// cancelling) is canonicalized to the positive quiet NaN: IEEE leaves
/// NaN sign/payload propagation unspecified and compilers exploit that,
/// but Krum sorts distances with `total_cmp`, where a negative NaN would
/// order *before* every finite value and let a poisoned row win.
/// Canonicalizing pins the contract — NaN distances always sort last —
/// and makes the blocked kernel bitwise-reproducible against this one.
#[inline]
pub fn dist_sq(a: &[f32], b: &[f32]) -> f64 {
    check_same_len(a, b);
    let mut acc = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        let d = (*x - *y) as f64;
        acc += d * d;
    }
    if acc.is_nan() {
        return f64::NAN;
    }
    acc
}

/// Euclidean distance.
#[inline]
pub fn dist(a: &[f32], b: &[f32]) -> f64 {
    dist_sq(a, b).sqrt()
}

/// Cosine similarity in `[-1, 1]`; returns 0 when either vector is zero
/// (the convention used by cosine-similarity clustering defenses).
#[inline]
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f64 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Clip `x` to Euclidean norm at most `tau` (centered-clipping building
/// block). Returns the scaling factor applied (1.0 when no clip happened).
#[inline]
pub fn clip_norm(x: &mut [f32], tau: f64) -> f64 {
    assert!(tau >= 0.0, "clip radius must be non-negative");
    let n = norm(x);
    if n <= tau || n == 0.0 {
        return 1.0;
    }
    let s = (tau / n) as f32;
    scale(s, x);
    s as f64
}

/// Fill with zeros.
#[inline]
pub fn zero(x: &mut [f32]) {
    for xi in x.iter_mut() {
        *xi = 0.0;
    }
}

/// Rows processed per coordinate pass by the blocked kernels below.
///
/// Four f64 accumulators fit comfortably in registers; larger blocks
/// spill without improving the memory-traffic picture (the shared
/// operand `a` is the reuse win, and it is already read once per pass).
const BLOCK_ROWS: usize = 4;

/// Blocked squared-distance kernel: `out[k] = dist_sq(a, rows[k])`.
///
/// Rows are processed in register blocks of [`BLOCK_ROWS`], so `a` is
/// streamed once per block instead of once per row — the cache-blocking
/// half of the Krum distance-matrix optimization. Byte-stability: every
/// pair keeps its *own* `f64` accumulator and visits coordinates in
/// index order, so each `out[k]` is bitwise-equal to `dist_sq(a,
/// rows[k])` (the naive reference retained in [`reference`]).
pub fn dist_sq_block(a: &[f32], rows: &[&[f32]], out: &mut [f64]) {
    assert_eq!(rows.len(), out.len(), "rows/out length mismatch");
    let d = a.len();
    let mut k = 0;
    while k + BLOCK_ROWS <= rows.len() {
        let (r0, r1, r2, r3) = (rows[k], rows[k + 1], rows[k + 2], rows[k + 3]);
        check_same_len(a, r0);
        check_same_len(a, r1);
        check_same_len(a, r2);
        check_same_len(a, r3);
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for c in 0..d {
            let x = a[c];
            let d0 = (x - r0[c]) as f64;
            a0 += d0 * d0;
            let d1 = (x - r1[c]) as f64;
            a1 += d1 * d1;
            let d2 = (x - r2[c]) as f64;
            a2 += d2 * d2;
            let d3 = (x - r3[c]) as f64;
            a3 += d3 * d3;
        }
        // NaN canonicalization, matching `dist_sq` (see its docs).
        out[k] = if a0.is_nan() { f64::NAN } else { a0 };
        out[k + 1] = if a1.is_nan() { f64::NAN } else { a1 };
        out[k + 2] = if a2.is_nan() { f64::NAN } else { a2 };
        out[k + 3] = if a3.is_nan() { f64::NAN } else { a3 };
        k += BLOCK_ROWS;
    }
    while k < rows.len() {
        out[k] = dist_sq(a, rows[k]);
        k += 1;
    }
}

/// Partner rows per block of [`dist_sq_pairs`] — the SIMD lanes. Eight
/// `f64` accumulators are one AVX-512 register, two AVX2 registers or
/// four SSE2 registers per streamed row.
pub const PAIR_LANES: usize = 8;

/// Coordinates per panel tile of [`dist_sq_pairs`]: `256 × 8` `f32` is
/// 8 KB, small enough for the stack and to stay in L1 while every later
/// row streams past it.
const PAIR_TILE: usize = 256;

/// A vector width a kernel body can be compiled at. Lane `k` of a body
/// performs the same IEEE operations at every width — but for an exact
/// product fused into its sum, which rounds the same
/// ([`add_exact_product`]) — so the width a kernel runs at cannot change
/// a bit of its result, only how many lanes one instruction carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Width {
    /// 512-bit vectors (`avx512f` + `avx512vl`, and the `fma` under them).
    Avx512,
    /// 256-bit vectors (`avx2` + `fma`).
    Avx2,
    /// The build's baseline target; runs anywhere, and is the only
    /// width off x86.
    Plain,
}

impl Width {
    /// Every width, widest first.
    pub const ALL: [Width; 3] = [Width::Avx512, Width::Avx2, Width::Plain];

    /// The widest width the running CPU has.
    pub fn widest() -> Width {
        Width::ALL
            .into_iter()
            .find(|w| w.detected())
            .expect("the plain width runs anywhere")
    }

    /// Whether the running CPU has this width.
    pub fn detected(self) -> bool {
        match self {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Width::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512vl")
                    && is_x86_feature_detected!("fma")
            }
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Width::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            Width::Plain => true,
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            _ => false,
        }
    }

    /// Runs `kernel(a, b, c, fused)` inside a function compiled for this
    /// width, or returns `None` when the CPU lacks it. `fused` is whether
    /// that function has `fma` — a literal in each, so
    /// [`add_exact_product`]'s branch on it folds away; a kernel without
    /// an exact product ignores it. The kernel is vectorised
    /// at the width only if it is inlined into that function: pass an
    /// `#[inline(always)]` *closure* (a function item goes through a call
    /// shim that carries no such mark and is left out of line, at the
    /// baseline width) over `#[inline(always)]` functions.
    ///
    /// The closure takes its operands as three parameters — by
    /// convention inputs, output, scratch; pass `()` for what a kernel
    /// lacks — and captures nothing, because parameters are the wide
    /// function's own: a `&mut` output keeps the `noalias` it has as a
    /// parameter and loses in a closure's environment or a tuple, and
    /// without it [`dist_sq_pairs`]' inner loop is vectorised with one
    /// more shuffle a step (`agg_wide` −5 %). [`at_widest`] is the
    /// dispatch; this is public so differential tests reach the widths
    /// the dispatch passes over on the host.
    #[inline]
    pub fn run<A, B, C, R>(
        self,
        kernel: impl FnOnce(A, B, C, bool) -> R,
        a: A,
        b: B,
        c: C,
    ) -> Option<R> {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        #[target_feature(enable = "avx2,fma")]
        fn avx2<A, B, C, R>(kernel: impl FnOnce(A, B, C, bool) -> R, a: A, b: B, c: C) -> R {
            kernel(a, b, c, true)
        }
        // rustc's `avx512f` implies `fma`.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        #[target_feature(enable = "avx512f,avx512vl")]
        fn avx512<A, B, C, R>(kernel: impl FnOnce(A, B, C, bool) -> R, a: A, b: B, c: C) -> R {
            kernel(a, b, c, true)
        }
        if !self.detected() {
            return None;
        }
        Some(match self {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: `detected` returned true for `avx512f`, `avx512vl` and the `fma` they imply just above.
            Width::Avx512 => unsafe { avx512(kernel, a, b, c) },
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: `detected` returned true for `avx2` and `fma` just above.
            Width::Avx2 => unsafe { avx2(kernel, a, b, c) },
            // Off x86 nothing but `Plain` is ever detected.
            _ => kernel(a, b, c, false),
        })
    }
}

/// Runs `kernel(a, b, c, fused)` compiled at the widest [`Width`] the
/// running CPU has (see [`Width::run`]).
#[inline]
pub fn at_widest<A, B, C, R>(kernel: impl FnOnce(A, B, C, bool) -> R, a: A, b: B, c: C) -> R {
    Width::widest()
        .run(kernel, a, b, c)
        .expect("the width was just detected")
}

/// One block of the pairwise squared-distance matrix: for the partner
/// rows `first..first + w` (`w = min(PAIR_LANES, n − first)`) and every
/// row `j` after each of them, `chunk[k * n + j] = dist_sq(rows[first +
/// k], rows[j])` — `chunk` is rows `first..first + w` of the flat
/// `n × n` matrix, so the blocks together fill its upper triangle. The
/// rest of `chunk` (diagonal and lower triangle) is zeroed.
///
/// The partners are transposed, one [`PAIR_TILE`]-coordinate tile at a
/// time, into a feature-major panel on the stack; later rows stream
/// past it two at a time with `acc[k] += ((p[c][k] − x[c]) as f64)²`,
/// and the accumulators rest in `chunk` between tiles. Every pair keeps
/// its own accumulator and visits coordinates in index order exactly as
/// [`dist_sq`] does (same NaN canonicalization; the difference is taken
/// in `f32` and then widened, so its square is exact and fusing it into
/// the add rounds the same — [`add_exact_product`]), so each value is
/// bitwise `dist_sq`'s — what the layout changes is that the lanes of
/// one SIMD register are *pairs*.
///
/// The body is compiled at every [`Width`] and runs [`at_widest`].
///
/// # Panics
/// If a row's length differs from the first's, or `chunk.len() != w * n`.
pub fn dist_sq_pairs(rows: &[&[f32]], first: usize, chunk: &mut [f64]) {
    let n = rows.len();
    assert!(first < n, "dist_sq_pairs: block starts past the last row");
    assert_eq!(
        chunk.len(),
        PAIR_LANES.min(n - first) * n,
        "dist_sq_pairs: chunk is not the block's rows of the n×n matrix"
    );
    for r in rows {
        check_same_len(rows[0], r);
    }
    at_widest(
        #[inline(always)]
        |(rows, first), chunk, (), fused| pairs_body(rows, first, chunk, fused),
        (rows, first),
        chunk,
        (),
    )
}

/// The one body of [`dist_sq_pairs`], inlined into the function of each
/// [`Width`] it is run at.
#[inline(always)]
fn pairs_body(rows: &[&[f32]], first: usize, chunk: &mut [f64], fused: bool) {
    let n = rows.len();
    let partners = &rows[first..(first + PAIR_LANES).min(n)];
    // `later[s]` is row `first + 1 + s`; the partners before it are
    // lanes `0..=s`, which is every lane once `s + 1 ≥ w`.
    let later = &rows[first + 1..];
    let lanes = |s: usize| partners.len().min(s + 1);
    chunk.fill(0.0);
    if later.is_empty() {
        return;
    }
    let d = partners[0].len();
    let mut panel = [[0.0f32; PAIR_LANES]; PAIR_TILE];
    for c0 in (0..d).step_by(PAIR_TILE) {
        let t = PAIR_TILE.min(d - c0);
        for (k, p) in partners.iter().enumerate() {
            for (col, v) in panel.iter_mut().zip(&p[c0..c0 + t]) {
                col[k] = *v;
            }
        }
        let panel = &panel[..t];
        let mut s = 0;
        while s + 2 <= later.len() {
            let xs = [&later[s][c0..c0 + t], &later[s + 1][c0..c0 + t]];
            let lanes = [lanes(s), lanes(s + 1)];
            stream_rows(panel, xs, lanes, first + 1 + s, n, chunk, fused);
            s += 2;
        }
        if s < later.len() {
            let xs = [&later[s][c0..c0 + t]];
            stream_rows(panel, xs, [lanes(s)], first + 1 + s, n, chunk, fused);
        }
    }
    // NaN canonicalization, matching `dist_sq` (see its docs).
    for v in chunk.iter_mut() {
        if v.is_nan() {
            *v = f64::NAN;
        }
    }
}

/// `R` consecutive rows (matrix columns `j..j + R`) past one panel
/// tile: loads row `r`'s first `lanes[r]` accumulators from `chunk`,
/// adds the tile's coordinates in index order, stores them back. The
/// remaining lanes (a partner at or after the row itself, or past a
/// short last block) compute on whatever the panel holds and are
/// dropped.
#[inline(always)]
fn stream_rows<const R: usize>(
    panel: &[[f32; PAIR_LANES]],
    xs: [&[f32]; R],
    lanes: [usize; R],
    j: usize,
    n: usize,
    chunk: &mut [f64],
    fused: bool,
) {
    // `[..panel.len()]` pins every row's length to the tile's, so
    // `x[c]` below needs no bounds check.
    let xs = xs.map(|x| &x[..panel.len()]);
    // Every lane loads, a dropped one from the last stored lane's slot:
    // eight loads of one shape keep the accumulators a vector.
    let mut acc = [[0.0f64; PAIR_LANES]; R];
    for r in 0..R {
        for k in 0..PAIR_LANES {
            acc[r][k] = chunk[k.min(lanes[r] - 1) * n + j + r];
        }
    }
    for (c, col) in panel.iter().enumerate() {
        for (a, x) in acc.iter_mut().zip(&xs) {
            let xc = x[c];
            for (ak, pk) in a.iter_mut().zip(col) {
                let diff = (*pk - xc) as f64;
                *ak = add_exact_product(fused, *ak, diff, diff);
            }
        }
    }
    for r in 0..R {
        for k in 0..PAIR_LANES {
            if k < lanes[r] {
                chunk[k * n + j + r] = acc[r][k];
            }
        }
    }
}

/// Fused multi-row accumulate: `out += r₀ + r₁ + …` in row order.
///
/// Equivalent to calling [`add_assign`] once per row, but rows are
/// fused in blocks of [`BLOCK_ROWS`] so `out` is read and written once
/// per block instead of once per row. Byte-stability: for every
/// coordinate the partial sums are added in exactly the row order the
/// sequential `add_assign` chain would produce (`((out+r₀)+r₁)+…`,
/// left-associated), so the result is bitwise identical.
pub fn add_rows(rows: &[&[f32]], out: &mut [f32]) {
    let mut k = 0;
    while k + BLOCK_ROWS <= rows.len() {
        let (r0, r1, r2, r3) = (rows[k], rows[k + 1], rows[k + 2], rows[k + 3]);
        check_same_len(r0, out);
        check_same_len(r1, out);
        check_same_len(r2, out);
        check_same_len(r3, out);
        for (c, o) in out.iter_mut().enumerate() {
            let mut acc = *o;
            acc += r0[c];
            acc += r1[c];
            acc += r2[c];
            acc += r3[c];
            *o = acc;
        }
        k += BLOCK_ROWS;
    }
    while k < rows.len() {
        add_assign(rows[k], out);
        k += 1;
    }
}

/// Fused multi-row axpy: `out += w₀·r₀ + w₁·r₁ + …` in row order, with
/// the same left-associated per-coordinate add chain a sequence of
/// [`axpy`] calls would produce — bitwise identical, one pass over
/// `out` per block of [`BLOCK_ROWS`] rows.
pub fn axpy_rows(weights: &[f32], rows: &[&[f32]], out: &mut [f32]) {
    assert_eq!(rows.len(), weights.len(), "rows/weights length mismatch");
    let mut k = 0;
    while k + BLOCK_ROWS <= rows.len() {
        let (r0, r1, r2, r3) = (rows[k], rows[k + 1], rows[k + 2], rows[k + 3]);
        let (w0, w1, w2, w3) = (
            weights[k],
            weights[k + 1],
            weights[k + 2],
            weights[k + 3],
        );
        check_same_len(r0, out);
        check_same_len(r1, out);
        check_same_len(r2, out);
        check_same_len(r3, out);
        for (c, o) in out.iter_mut().enumerate() {
            let mut acc = *o;
            acc += w0 * r0[c];
            acc += w1 * r1[c];
            acc += w2 * r2[c];
            acc += w3 * r3[c];
            *o = acc;
        }
        k += BLOCK_ROWS;
    }
    while k < rows.len() {
        axpy(weights[k], rows[k], out);
        k += 1;
    }
}

/// `out = mean of rows` where `rows` all share the same length.
/// Panics on an empty input (the mean of nothing is undefined).
///
/// Uses the fused [`add_rows`] kernel; bitwise identical to the naive
/// per-row loop retained in [`reference::mean_of_naive`].
pub fn mean_of(rows: &[&[f32]], out: &mut [f32]) {
    assert!(!rows.is_empty(), "mean_of: empty input");
    zero(out);
    add_rows(rows, out);
    scale(1.0 / rows.len() as f32, out);
}

/// Weighted mean: `out = Σ wᵢ·rowᵢ / Σ wᵢ`. Weights must be non-negative
/// and not all zero.
///
/// Uses the fused [`axpy_rows`] kernel; bitwise identical to the naive
/// per-row loop retained in [`reference::weighted_mean_of_naive`].
pub fn weighted_mean_of(rows: &[&[f32]], weights: &[f32], out: &mut [f32]) {
    assert_eq!(rows.len(), weights.len(), "rows/weights length mismatch");
    assert!(!rows.is_empty(), "weighted_mean_of: empty input");
    let total: f64 = weights.iter().map(|w| *w as f64).sum();
    assert!(
        total > 0.0 && weights.iter().all(|w| *w >= 0.0),
        "weights must be non-negative with positive sum"
    );
    zero(out);
    axpy_rows(weights, rows, out);
    scale((1.0 / total) as f32, out);
}

/// `out = mean of rows[idx[0]], rows[idx[1]], …` — a selection mean
/// (Multi-Krum) without materializing a selected-refs vector. Bitwise
/// identical to [`mean_of`] over the gathered rows: same block
/// structure, same left-associated per-coordinate add order.
pub fn mean_of_indexed(rows: &[&[f32]], idx: &[usize], out: &mut [f32]) {
    assert!(!idx.is_empty(), "mean_of: empty input");
    zero(out);
    let mut k = 0;
    while k + BLOCK_ROWS <= idx.len() {
        let (r0, r1, r2, r3) = (
            rows[idx[k]],
            rows[idx[k + 1]],
            rows[idx[k + 2]],
            rows[idx[k + 3]],
        );
        check_same_len(r0, out);
        check_same_len(r1, out);
        check_same_len(r2, out);
        check_same_len(r3, out);
        for (c, o) in out.iter_mut().enumerate() {
            let mut acc = *o;
            acc += r0[c];
            acc += r1[c];
            acc += r2[c];
            acc += r3[c];
            *o = acc;
        }
        k += BLOCK_ROWS;
    }
    while k < idx.len() {
        add_assign(rows[idx[k]], out);
        k += 1;
    }
    scale(1.0 / idx.len() as f32, out);
}

/// Naive reference kernels, retained verbatim so the differential
/// tests (`tests/kernel_equivalence.rs`) can pin the fused/blocked
/// kernels above bitwise against the original loops.
/// Not part of the supported API.
#[doc(hidden)]
pub mod reference {
    use super::*;

    /// Original `mean_of` body: one `add_assign` pass per row.
    pub fn mean_of_naive(rows: &[&[f32]], out: &mut [f32]) {
        assert!(!rows.is_empty(), "mean_of: empty input");
        zero(out);
        for r in rows {
            add_assign(r, out);
        }
        scale(1.0 / rows.len() as f32, out);
    }

    /// Original `weighted_mean_of` body: one `axpy` pass per row.
    pub fn weighted_mean_of_naive(rows: &[&[f32]], weights: &[f32], out: &mut [f32]) {
        assert_eq!(rows.len(), weights.len(), "rows/weights length mismatch");
        assert!(!rows.is_empty(), "weighted_mean_of: empty input");
        let total: f64 = weights.iter().map(|w| *w as f64).sum();
        assert!(
            total > 0.0 && weights.iter().all(|w| *w >= 0.0),
            "weights must be non-negative with positive sum"
        );
        zero(out);
        for (r, w) in rows.iter().zip(weights) {
            axpy(*w, r, out);
        }
        scale((1.0 / total) as f32, out);
    }

    /// The dense layer as one sequential `dot` per output row, then the
    /// bias — what [`affine_rows`] and [`forward_block`] must reproduce
    /// bit for bit.
    pub fn affine_naive(w: &[f32], bias: &[f32], x: &[f32]) -> Vec<f32> {
        assert_eq!(w.len(), bias.len() * x.len(), "weight shape mismatch");
        bias.iter()
            .enumerate()
            .map(|(r, b)| dot(&w[r * x.len()..(r + 1) * x.len()], x) as f32 + *b)
            .collect()
    }

    /// Unblocked distance row: one full `dist_sq` pass per row.
    pub fn dist_sq_rows_naive(a: &[f32], rows: &[&[f32]], out: &mut [f64]) {
        assert_eq!(rows.len(), out.len(), "rows/out length mismatch");
        for (o, r) in out.iter_mut().zip(rows) {
            *o = dist_sq(a, r);
        }
    }
}

/// True when every coordinate of `a` and `b` differs by at most `tol`.
#[inline]
pub fn approx_eq(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_adds_scaled() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn axpby_is_linear_combiner() {
        let g = [1.0, 1.0];
        let mut l = [3.0, 5.0];
        // alpha = 0.25: l = 0.25*g + 0.75*l
        axpby(0.25, &g, 0.75, &mut l);
        assert_eq!(l, [2.5, 4.0]);
    }

    #[test]
    fn axpby_alpha_one_replaces() {
        let g = [7.0, 8.0];
        let mut l = [0.0, 0.0];
        axpby(1.0, &g, 0.0, &mut l);
        assert_eq!(l, g);
    }

    #[test]
    fn dot_and_norms() {
        let a = [3.0, 4.0];
        assert_eq!(norm_sq(&a), 25.0);
        assert_eq!(norm(&a), 5.0);
        assert_eq!(dot(&a, &a), 25.0);
    }

    #[test]
    fn distances() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(dist_sq(&a, &b), 25.0);
        assert_eq!(dist(&a, &b), 5.0);
    }

    #[test]
    fn cosine_of_parallel_and_orthogonal() {
        assert!((cosine_similarity(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-9);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-9);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-9);
        // zero vector convention
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn clip_norm_clips_only_long_vectors() {
        let mut v = [3.0, 4.0];
        let s = clip_norm(&mut v, 10.0);
        assert_eq!(s, 1.0);
        assert_eq!(v, [3.0, 4.0]);

        let s = clip_norm(&mut v, 2.5);
        assert!((s - 0.5).abs() < 1e-6);
        assert!(approx_eq(&v, &[1.5, 2.0], 1e-6));
    }

    #[test]
    fn mean_of_rows() {
        let r1 = [1.0f32, 2.0];
        let r2 = [3.0f32, 6.0];
        let mut out = [0.0f32; 2];
        mean_of(&[&r1, &r2], &mut out);
        assert_eq!(out, [2.0, 4.0]);
    }

    #[test]
    fn weighted_mean_respects_weights() {
        let r1 = [0.0f32];
        let r2 = [10.0f32];
        let mut out = [0.0f32];
        weighted_mean_of(&[&r1, &r2], &[1.0, 3.0], &mut out);
        assert!((out[0] - 7.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut y = [0.0f32; 2];
        axpy(1.0, &[1.0, 2.0, 3.0], &mut y);
    }

    #[test]
    #[should_panic(expected = "empty input")]
    fn mean_of_empty_panics() {
        let mut out = [0.0f32; 1];
        mean_of(&[], &mut out);
    }

    /// Deterministic pseudo-random rows, including adversarial values.
    fn synth_rows(n: usize, d: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| {
                        let mut x = ((i as u64) << 32) | j as u64;
                        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        x ^= x >> 31;
                        match x % 97 {
                            0 => f32::NAN,
                            1 => f32::INFINITY,
                            2 => f32::NEG_INFINITY,
                            3 => f32::MIN_POSITIVE / 2.0, // denormal
                            4 => -0.0,
                            5 => 0.0,
                            _ => ((x % 2_000) as f32 / 300.0) - 3.0,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn dist_sq_block_bitwise_matches_naive() {
        for (n, d) in [(1usize, 5usize), (4, 7), (7, 33), (13, 129)] {
            let rows = synth_rows(n + 1, d);
            let a = rows[0].as_slice();
            let refs: Vec<&[f32]> = rows[1..].iter().map(|r| r.as_slice()).collect();
            let mut blocked = vec![0.0f64; n];
            let mut naive = vec![0.0f64; n];
            dist_sq_block(a, &refs, &mut blocked);
            reference::dist_sq_rows_naive(a, &refs, &mut naive);
            for (b, v) in blocked.iter().zip(&naive) {
                assert_eq!(b.to_bits(), v.to_bits(), "n={n} d={d}");
            }
        }
    }

    /// Rows for the pairwise kernel: full-mantissa values across twenty
    /// binades (so a sum of squares rounds at nearly every step and any
    /// reordering or fusing shows in the last bits), subnormals and
    /// signed zeros everywhere, and every fourth row poisoned — `+∞`
    /// alone (its distances are `+∞`, to itself NaN) or NaN and `±∞`
    /// mixed.
    fn pair_rows(n: usize, d: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..d)
                    .map(|c| {
                        let mut x = ((i as u64) << 32 | c as u64)
                            .wrapping_add(1)
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        x ^= x >> 29;
                        let finite = f32::from_bits(
                            ((x >> 20) as u32 & 0x807f_ffff) | (117 + (x % 21) as u32) << 23,
                        );
                        match (i % 8, x % 16) {
                            (3, 0) => f32::INFINITY,
                            (7, 0) => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][c % 3],
                            (_, 1) => f32::MIN_POSITIVE / 2.0, // denormal
                            (_, 2) => -0.0,
                            (_, 3) => 0.0,
                            _ => finite,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Every compiled width the host can run — the dispatch's choice and
    /// the widths it passes over — against one `dist_sq` per pair, exact
    /// bits: blocks short, full and several (n), tiles short, exact and
    /// several (d). The buffer starts dirty, so a stale accumulator
    /// would show.
    #[test]
    fn dist_sq_pairs_bitwise_matches_dist_sq_on_every_arm() {
        let mut ran = Vec::new();
        for n in [1usize, 2, 3, 4, 7, 8, 9, 17, 33, 128] {
            for d in [1usize, 7, 255, 256, 257, 650, 1031] {
                let rows = pair_rows(n, d);
                let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
                let mut want = vec![0.0f64; n * n];
                for i in 0..n {
                    for j in i + 1..n {
                        want[i * n + j] = dist_sq(refs[i], refs[j]);
                    }
                }
                if (n, d) == (128, 1031) {
                    // The data is worth the comparison: most pairs are
                    // finite, and both poisoned outcomes occur.
                    let count = |p: fn(&f64) -> bool| want.iter().filter(|v| p(v)).count();
                    assert!(count(|v| v.is_finite() && *v > 0.0) > n * n / 4);
                    assert!(count(|v| v.is_nan()) > 0 && count(|v| v.is_infinite()) > 0);
                }
                // `None` is the dispatch.
                for width in Width::ALL.into_iter().map(Some).chain([None]) {
                    let mut got = vec![f64::NAN; n * n];
                    let supported = got
                        .chunks_mut(PAIR_LANES * n)
                        .enumerate()
                        .all(|(b, chunk)| {
                            let first = b * PAIR_LANES;
                            match width {
                                Some(w) => w
                                    .run(
                                        #[inline(always)]
                                        |(rows, first), chunk, (), fused| {
                                            pairs_body(rows, first, chunk, fused)
                                        },
                                        (&refs[..], first),
                                        chunk,
                                        (),
                                    )
                                    .is_some(),
                                None => {
                                    dist_sq_pairs(&refs, first, chunk);
                                    true
                                }
                            }
                        });
                    if !supported {
                        continue;
                    }
                    if !ran.contains(&width) {
                        ran.push(width);
                    }
                    for (at, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "{width:?} n={n} d={d} pair ({}, {}): {g} vs {w}",
                            at / n,
                            at % n
                        );
                    }
                }
            }
        }
        assert!(
            ran.contains(&Some(Width::Plain)) && ran.contains(&None),
            "{ran:?}"
        );
        println!("dist_sq_pairs widths run on this host: {ran:?}");
    }

    /// The same at the edges of the exact-product argument
    /// ([`add_exact_product`]; the rows are `tests/kernel_equivalence.rs`'s
    /// `edge_rows`): differences at binades 2^±60, of subnormals, of
    /// `±f32::MAX` (`∞` once taken) and of `±∞` and zeros, squared and
    /// summed fused or not.
    #[test]
    fn dist_sq_pairs_bitwise_matches_dist_sq_at_the_edges_on_every_arm() {
        let (n, d) = (25usize, 300usize);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|c| {
                        let mut x = ((i as u64) << 32 | c as u64)
                            .wrapping_add(7)
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        x ^= x >> 29;
                        let sign = ((x >> 63) as u32) << 31;
                        let at = |exp: u32| {
                            f32::from_bits(sign | exp << 23 | ((x >> 20) as u32 & 0x007f_ffff))
                        };
                        match i % 6 {
                            0 => at(127 + 60),
                            1 => at(127 - 60),
                            2 => at(0),
                            3 if x.is_multiple_of(4) => f32::from_bits(sign | f32::MAX.to_bits()),
                            4 => {
                                [f32::INFINITY, 0.0, -0.0, f32::NEG_INFINITY, 1.0][(x % 5) as usize]
                            }
                            _ => at(126 + (x % 3) as u32),
                        }
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        for width in Width::ALL.into_iter().filter(|w| w.detected()) {
            let mut got = vec![f64::NAN; n * n];
            for (b, chunk) in got.chunks_mut(PAIR_LANES * n).enumerate() {
                width.run(
                    #[inline(always)]
                    |(rows, first), chunk, (), fused| pairs_body(rows, first, chunk, fused),
                    (&refs[..], b * PAIR_LANES),
                    chunk,
                    (),
                );
            }
            for i in 0..n {
                for j in i + 1..n {
                    let want = dist_sq(refs[i], refs[j]);
                    assert_eq!(
                        got[i * n + j].to_bits(),
                        want.to_bits(),
                        "{width:?} pair ({i}, {j}): {} vs {want}",
                        got[i * n + j]
                    );
                }
            }
        }
    }

    /// `add_exact_product` is compiled to `vfmadd` inside the AVX2 arm,
    /// so the arm may only be taken where the CPU has it.
    #[test]
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    fn the_avx2_width_is_only_detected_with_fma() {
        assert!(!Width::Avx2.detected() || is_x86_feature_detected!("fma"));
        assert!(!Width::Avx512.detected() || is_x86_feature_detected!("fma"));
    }

    #[test]
    fn dist_sq_pairs_of_empty_rows_is_zero() {
        let rows: [&[f32]; 3] = [&[], &[], &[]];
        let mut chunk = [7.0f64; 9];
        dist_sq_pairs(&rows, 0, &mut chunk);
        assert_eq!(chunk, [0.0; 9]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dist_sq_pairs_rejects_a_ragged_row() {
        let rows: [&[f32]; 3] = [&[0.0; 4], &[0.0; 4], &[0.0; 3]];
        dist_sq_pairs(&rows, 0, &mut [0.0; 9]);
    }

    #[test]
    #[should_panic(expected = "chunk is not the block's rows")]
    fn dist_sq_pairs_rejects_a_mis_sized_chunk() {
        let rows: [&[f32]; 3] = [&[0.0; 4], &[0.0; 4], &[0.0; 4]];
        dist_sq_pairs(&rows, 0, &mut [0.0; 6]);
    }

    /// Bitwise equality, except that any two NaNs compare equal: IEEE
    /// leaves NaN sign/payload propagation unspecified, so two formally
    /// identical add chains may yield differently-signed quiet NaNs.
    /// (The f64 distance kernels canonicalize and stay strictly bitwise.)
    fn bits_eq_f32(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn fused_means_bitwise_match_naive() {
        for (n, d) in [(1usize, 3usize), (4, 16), (5, 17), (11, 64)] {
            let rows = synth_rows(n, d);
            let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
            let mut fused = vec![0.0f32; d];
            let mut naive = vec![0.0f32; d];
            mean_of(&refs, &mut fused);
            reference::mean_of_naive(&refs, &mut naive);
            for (a, b) in fused.iter().zip(&naive) {
                assert!(bits_eq_f32(*a, *b), "mean n={n} d={d}: {a:?} vs {b:?}");
            }

            let weights: Vec<f32> = (0..n).map(|i| 0.25 + (i % 5) as f32).collect();
            weighted_mean_of(&refs, &weights, &mut fused);
            reference::weighted_mean_of_naive(&refs, &weights, &mut naive);
            for (a, b) in fused.iter().zip(&naive) {
                assert!(bits_eq_f32(*a, *b), "wmean n={n} d={d}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn even_blocks_split_evenly_and_cover_every_row() {
        let split = |rows, max| even_blocks(rows, max).collect::<Vec<_>>();
        assert_eq!(split(10, AFFINE_LANES), [(0, 5), (5, 5)]);
        assert_eq!(split(17, AFFINE_LANES), [(0, 6), (6, 6), (12, 5)]);
        assert_eq!(split(8, AFFINE_LANES), [(0, 8)]);
        assert!(split(0, AFFINE_LANES).is_empty());
    }

    #[test]
    fn binary_blocks_are_powers_of_two_and_cover_every_row() {
        let split = |n, max| binary_blocks(n, max).collect::<Vec<_>>();
        assert_eq!(split(10, PANEL_LANES), [(0, 8), (8, 2)]);
        assert_eq!(
            split(64, PANEL_LANES),
            [(0, 16), (16, 16), (32, 16), (48, 16)]
        );
        assert_eq!(split(19, PANEL_LANES), [(0, 16), (16, 2), (18, 1)]);
        assert_eq!(split(65, RANK_COLS), [(0, 32), (32, 32), (64, 1)]);
        assert_eq!(split(7, RANK_COLS), [(0, 4), (4, 2), (6, 1)]);
        assert!(split(0, PANEL_LANES).is_empty());
        // A panel's single last row shares its tile with a lane of zeros.
        let mut panel = Panel::default();
        panel.fill_at(Width::Avx512, [&[1.0; 19 * 3][..]], 19, 3);
        assert_eq!(
            panel.tiles().collect::<Vec<_>>(),
            [(0, 16), (16, 2), (18, 2)]
        );
        assert_eq!(panel.data.len(), 20 * 3);
        assert_eq!(panel.data[18 * 3..], [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
    }

    /// Both dense kernels against `dot` + bias per row: every row count
    /// 1–33 (every tile width, every uneven split) at short, odd, paper
    /// and long row lengths, over NaN, ±∞, subnormals and signed zeros;
    /// the block kernel under 1–6 inputs (a short, a full and a ragged
    /// second group of four). One `Panel` is refilled across all
    /// shapes, larger and smaller. The every-width grid is
    /// `tests/kernel_equivalence.rs`'s.
    #[test]
    fn dense_kernels_bitwise_match_dot_per_row() {
        let mut panel = Panel::default();
        for d in [1usize, 7, 64, 129] {
            for rows in 1usize..=33 {
                let data = synth_rows(rows + 2, d.max(rows));
                let w: Vec<f32> = data[..rows].iter().flat_map(|r| &r[..d]).copied().collect();
                let bias = &data[rows][..rows];
                let xs: Vec<&[f32]> = (0..1 + rows % 6)
                    .map(|s| &data[(rows + 1 + s) % (rows + 2)][..d])
                    .collect();
                panel.fill([&w[..]], rows, d);
                let mut block = vec![f32::NAN; xs.len() * rows];
                forward_block(&panel, bias, &xs, &mut block);
                for (s, x) in xs.iter().enumerate() {
                    let naive = reference::affine_naive(&w, bias, x);
                    let mut single = vec![0.0f32; rows];
                    affine_rows(&w, bias, x, &mut single);
                    for (r, want) in naive.iter().enumerate() {
                        assert!(
                            bits_eq_f32(single[r], *want),
                            "rows={rows} d={d} input {s} row {r}: {} vs {want}",
                            single[r]
                        );
                        let got = block[s * rows + r];
                        assert!(
                            bits_eq_f32(got, *want),
                            "rows={rows} d={d} input {s} row {r}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_rows_yield_the_bias() {
        let mut panel = Panel::default();
        panel.fill([&[][..]], 3, 0);
        let mut out = [9.0f32; 6];
        forward_block(&panel, &[1.0, -2.0, 0.5], &[&[], &[]], &mut out);
        assert_eq!(out, [1.0, -2.0, 0.5, 1.0, -2.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "weight shape mismatch")]
    fn panel_fill_rejects_a_mis_shaped_matrix() {
        Panel::default().fill([&[0.0; 7][..]], 2, 4);
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn forward_block_rejects_an_input_of_another_width() {
        let mut panel = Panel::default();
        panel.fill([&[0.0; 8][..]], 2, 4);
        forward_block(&panel, &[0.0; 2], &[&[0.0; 4], &[0.0; 3]], &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn forward_block_rejects_an_output_of_another_height() {
        let mut panel = Panel::default();
        panel.fill([&[0.0; 8][..]], 2, 4);
        forward_block(&panel, &[0.0; 2], &[&[0.0; 4]], &mut [0.0; 3]);
    }

    /// The rank update against one `axpy` per (input, row), both skip
    /// modes, on a gradient that starts dirty: tiles short, exact and
    /// several in both directions, coefficients one in five exactly
    /// zero, adversarial inputs.
    #[test]
    fn rank_update_bitwise_matches_axpy_per_row() {
        for (n, rows, d) in [(1usize, 1, 1), (3, 10, 64), (5, 13, 33), (32, 25, 7)] {
            let data = synth_rows(n + rows + 1, d.max(rows));
            let xs: Vec<&[f32]> = data[..n].iter().map(|x| &x[..d]).collect();
            let start: Vec<f32> = data[n..n + rows]
                .iter()
                .flat_map(|r| &r[..d])
                .copied()
                .collect();
            let nonzero = |k: usize| data[n + rows][k % rows] + k as f32;
            let coeff: Vec<f32> = (0..n * rows)
                .map(|k| if k % 5 == 0 { 0.0 } else { nonzero(k) })
                .collect();
            for skip_zero in [true, false] {
                let mut want = start.clone();
                for (s, x) in xs.iter().enumerate() {
                    for (r, row) in want.chunks_exact_mut(d).enumerate() {
                        let a = coeff[s * rows + r];
                        if !skip_zero || a != 0.0 {
                            axpy(a, x, row);
                        }
                    }
                }
                let mut got = start.clone();
                rank_update(&mut got, &coeff, &xs, skip_zero);
                for (at, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        bits_eq_f32(*g, *w),
                        "n={n} rows={rows} d={d} skip={skip_zero} entry {at}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn rank_update_without_inputs_changes_nothing() {
        let mut grad = [1.0f32, -0.0];
        rank_update(&mut grad, &[], &[], true);
        assert_eq!(grad.map(f32::to_bits), [1.0f32, -0.0].map(f32::to_bits));
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn rank_update_rejects_a_mis_shaped_gradient() {
        rank_update(&mut [0.0; 7], &[1.0; 2], &[&[0.0; 4]], true);
    }

    #[test]
    fn dist_sq_is_bitwise_symmetric() {
        // The symmetry-halved Krum matrix relies on dist_sq(a, b) being
        // bitwise-equal to dist_sq(b, a): (x−y) = −(y−x) exactly in IEEE
        // arithmetic, so the squared terms — and their sum — agree.
        let rows = synth_rows(6, 41);
        for a in &rows {
            for b in &rows {
                assert_eq!(dist_sq(a, b).to_bits(), dist_sq(b, a).to_bits());
            }
        }
    }
}
