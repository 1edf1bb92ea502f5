//! Flat-slice kernels: the inner loops of the whole system.
//!
//! All functions operate on `&[f32]` / `&mut [f32]` so they can be applied
//! to model parameter vectors, gradients, and matrix rows alike.

use std::cell::Cell;

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
/// through [`forward_class_major`], which hands a single input here.
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

/// Most output rows one [`Panel`] tile holds: sixteen `f32` lanes are
/// one AVX-512 register, so a full tile's two chains for each of four
/// inputs are eight of its 32 registers, which leaves room for the
/// broadcast inputs and the column load. Narrower widths have 16
/// registers, which sixteen lanes would fill or overflow: a panel
/// filled for them stops at eight.
const PANEL_LANES: usize = 16;

/// `acc + a · b` for `a`, `b` widened from `f32` — the one place a
/// product is fused into its sum. Two 24-bit significands multiply to at
/// most 48 bits, with an exponent in [−298, 256]: the product is exact
/// in `f64`, so `fl(fl(a·b) + acc)` and `fl(a·b + acc)` round the same
/// real number once and agree in every bit for every non-NaN operand
/// (subnormals, `f32::MAX²`, `±∞` and `∞ · 0` included; a NaN stays a
/// NaN of unspecified payload). No other product in this crate is exact
/// — [`axpy`] and [`rank_update`] multiply in `f32` — so nothing else
/// may fuse and keep its bits; the one other fused step,
/// [`forward_approx`]'s, is an approximation by contract. `fused` is
/// [`at_current`]'s flag: one `vfmadd` where `fma` is enabled (without
/// it the fused form is a libm call).
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

/// A ballot's weight matrices prepared for [`forward_approx`]: stored
/// feature-major, so the operands of one coordinate step — the same
/// coordinate of every output row — are adjacent in memory instead of
/// one row length apart.
///
/// Rows are split into tiles of a power-of-two lane count, at most
/// `PANEL_LANES` (`binary_blocks`: 10 rows → 8 + 2, 40 → 16 + 16 +
/// 8, 64 → 4 × 16, 19 → 16 + 2 + 2, a single last row sharing its tile
/// with a lane of zeros); the buffer is laid out
/// `[tile][coordinate][lane]`, i.e. a tile of `L` lanes starting at row
/// `r` occupies `data[r * cols..(r + L) * cols]` as `cols` groups of
/// `L` lanes.
///
/// A panel is a pure function of the weights it was last
/// [`fill`](Panel::fill)ed from; refilling reuses the buffer, so a
/// panel that has grown to its ballot's size allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct Panel {
    rows: usize,
    cols: usize,
    /// The tile cap of the last fill.
    lanes: usize,
    data: Vec<f32>,
}

impl Panel {
    /// Overwrites the panel with the row-major `rows × cols` matrices
    /// `mats` stacked in order — `mats.len() · rows` output rows, tiled
    /// as one matrix, so several models' layers go through
    /// [`forward_approx`] in one pass over the inputs. The tiles are
    /// cut for [`Width::current`]: `PANEL_LANES` lanes at
    /// [`Width::Avx512`], half that at the narrower widths.
    pub fn fill<'a, M>(&mut self, mats: M, rows: usize, cols: usize)
    where
        M: IntoIterator<Item = &'a [f32]>,
        M::IntoIter: ExactSizeIterator,
    {
        let mats = mats.into_iter();
        let wide = Width::current() == Width::Avx512;
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
                            group[l] = *v;
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

/// Inputs one tile pass of [`forward_approx`] carries in lock step.
const BLOCK_INPUTS: usize = 4;

/// The dense layer's dot products approximated in `f32`, without the
/// bias: `out[r * xs.len() + s]` is `dot(w_r, xs[s])` accumulated in
/// `f32` over an `f32` [`Panel`] — a row's values for the whole block
/// are adjacent, so a decision over samples reads them as lanes.
///
/// When finite, each value is within `γₙ·‖w_r‖·‖xs[s]‖ + n·2⁻¹⁴⁹` of
/// the real dot (`n` the panel's column count, `γₙ = nu / (1 − nu)`,
/// `u = 2⁻²⁴`): each term passes through at most `n` roundings — a
/// product and its add, or one fused step, per coordinate; a full tile
/// sums even and odd coordinates apart and adds the two once — each by
/// at most `u` of its result or half a subnormal, and `Σ|w_c·x_c| ≤
/// ‖w‖·‖x‖`. That bound is all a value is good for. The step is fused
/// at the wide widths and not at `Plain`, so the bits differ from width
/// to width and from the exact [`forward_class_major`]'s;
/// `hfl_ml::linear` adds the exact path's own error to it (the `γ₂ₙ`
/// bound of its certificate) and shows no value of this kernel to
/// anyone.
///
/// The lanes of one SIMD register are *rows*, as the panel lays them
/// out: tiles outermost, so a tile stays in L1 while every input group
/// streams past it, and `BLOCK_INPUTS` inputs in lock step, so each
/// column group is loaded once for four inputs. A last group of one to
/// three inputs runs the same body with its last input repeated and
/// the repeats dropped. The body is compiled at every [`Width`] and
/// runs at [`Width::current`].
///
/// # Panics
/// If an input's length is not the panel's column count, or `out` does
/// not hold `xs.len()` values per panel row.
pub fn forward_approx(panel: &Panel, xs: &[&[f32]], out: &mut [f32]) {
    assert_eq!(
        out.len(),
        xs.len() * panel.rows,
        "forward_approx: output length mismatch"
    );
    for x in xs {
        assert_eq!(x.len(), panel.cols, "forward_approx: input length mismatch");
    }
    at_current(
        #[inline(always)]
        |(panel, xs), out, (), fused| approx_body(panel, xs, out, fused),
        (panel, xs),
        out,
        (),
    )
}

/// The one body of [`forward_approx`], inlined into the function of
/// each [`Width`] it is run at.
#[inline(always)]
fn approx_body(panel: &Panel, xs: &[&[f32]], out: &mut [f32], fused: bool) {
    let (rows, d, n) = (panel.rows, panel.cols, xs.len());
    for (r, lanes) in panel.tiles() {
        let tile = &panel.data[r * d..(r + lanes) * d];
        // The lane beside a single last row has no output.
        let live_rows = lanes.min(rows - r);
        for (g, group) in xs.chunks(BLOCK_INPUTS).enumerate() {
            let last = group.len() - 1;
            let quad = [
                group[0],
                group[1.min(last)],
                group[2.min(last)],
                group[3.min(last)],
            ];
            let out = &mut out[r * n + g * BLOCK_INPUTS..];
            let live = (group.len(), live_rows);
            match lanes {
                2 => approx_tile::<2>(tile, quad, live, n, out, fused),
                4 => approx_tile::<4>(tile, quad, live, n, out, fused),
                8 => approx_tile::<8>(tile, quad, live, n, out, fused),
                _ => approx_tile::<PANEL_LANES>(tile, quad, live, n, out, fused),
            }
        }
    }
}

/// One tile of [`forward_approx`] under four inputs: `L` lanes, one
/// column group per coordinate, `acc + w · x` a step — one rounding
/// fused, two not. Input `k` of the first `inputs` writes lane `l` of
/// the first `rows` to `out[l * stride + k]`, through the tile on the
/// stack: a direct strided store of each lane costs the compiler's
/// vectoriser an extract a lane, and it then leaves the accumulation
/// scalar.
///
/// The accumulators are *named* arrays on purpose: as one `[[f32; L];
/// 4]` under a loop over the inputs they are left in memory and the
/// loop is scalar, or vectorised across the inputs with gathers
/// (DESIGN.md §15).
#[inline(always)]
fn approx_tile<const L: usize>(
    tile: &[f32],
    [x0, x1, x2, x3]: [&[f32]; BLOCK_INPUTS],
    (inputs, rows): (usize, usize),
    stride: usize,
    out: &mut [f32],
    fused: bool,
) {
    let step = |acc: f32, w: f32, x: f32| {
        if fused {
            w.mul_add(x, acc)
        } else {
            acc + w * x
        }
    };
    let (mut a0, mut a1, mut a2, mut a3) = ([0.0f32; L], [0.0f32; L], [0.0f32; L], [0.0f32; L]);
    let (cols, _) = tile.as_chunks::<L>();
    // A full tile sums even and odd coordinates in chains of their own:
    // four chains of one register wait on the step's latency, eight do
    // not, and an approximation may sum in any order (the bound holds
    // for every one). Narrower tiles keep one chain an input — their
    // lanes are fewer than a register's, and a second chain is packed
    // into the first's register with a shuffle a step.
    let (pairs, last) = if L == PANEL_LANES {
        cols.as_chunks::<2>()
    } else {
        (&[][..], cols)
    };
    let (mut b0, mut b1, mut b2, mut b3) = ([0.0f32; L], [0.0f32; L], [0.0f32; L], [0.0f32; L]);
    let ((p0, _), (p1, _)) = (x0.as_chunks::<2>(), x1.as_chunks::<2>());
    let ((p2, _), (p3, _)) = (x2.as_chunks::<2>(), x3.as_chunks::<2>());
    for ((((pair, v0), v1), v2), v3) in pairs.iter().zip(p0).zip(p1).zip(p2).zip(p3) {
        let [even, odd] = pair;
        for l in 0..L {
            a0[l] = step(a0[l], even[l], v0[0]);
            b0[l] = step(b0[l], odd[l], v0[1]);
        }
        for l in 0..L {
            a1[l] = step(a1[l], even[l], v1[0]);
            b1[l] = step(b1[l], odd[l], v1[1]);
        }
        for l in 0..L {
            a2[l] = step(a2[l], even[l], v2[0]);
            b2[l] = step(b2[l], odd[l], v2[1]);
        }
        for l in 0..L {
            a3[l] = step(a3[l], even[l], v3[0]);
            b3[l] = step(b3[l], odd[l], v3[1]);
        }
    }
    let done = 2 * pairs.len();
    let (x0, x1, x2, x3) = (&x0[done..], &x1[done..], &x2[done..], &x3[done..]);
    for ((((col, v0), v1), v2), v3) in last.iter().zip(x0).zip(x1).zip(x2).zip(x3) {
        for l in 0..L {
            a0[l] = step(a0[l], col[l], *v0);
        }
        for l in 0..L {
            a1[l] = step(a1[l], col[l], *v1);
        }
        for l in 0..L {
            a2[l] = step(a2[l], col[l], *v2);
        }
        for l in 0..L {
            a3[l] = step(a3[l], col[l], *v3);
        }
    }
    for l in 0..L {
        a0[l] += b0[l];
        a1[l] += b1[l];
        a2[l] += b2[l];
        a3[l] += b3[l];
    }
    let tile = [a0, a1, a2, a3];
    for l in 0..rows {
        for (k, acc) in tile.iter().enumerate().take(inputs) {
            out[l * stride + k] = acc[l];
        }
    }
}

/// Most columns of one gradient tile of [`rank_update`] where
/// `Width::Avx512` runs it: two rows of 64 `f32` are eight registers,
/// eight independent add chains. Narrower widths stop at half that —
/// two rows of 32 are eight AVX2 registers or sixteen SSE2, which 64
/// would overflow.
const RANK_COLS: usize = 64;

/// Where the coefficient of input `s` for gradient row `r` sits in a
/// rank update's `coeff`: `s * rows + r` (an input's coefficients
/// adjacent) or `r * inputs + s` (a row's, as [`forward_class_major`]
/// writes them).
#[derive(Clone, Copy)]
enum Coeff {
    InputMajor,
    RowMajor,
}

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
/// `RANK_COLS` columns of `grad` is loaded once, updated by every
/// input of the block and stored once, where the `axpy` loop loads and
/// stores a gradient row per (input, row).
///
/// The body is compiled at every [`Width`] and runs at
/// [`Width::current`]; a single input takes the `axpy` loop itself.
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
    rank_dispatch(grad, coeff, xs, skip_zero, Coeff::InputMajor)
}

/// [`rank_update`] over class-major coefficients: `grad[r][c] +=
/// coeff[r * xs.len() + s] * xs[s][c]` for `s` in order, bit for bit
/// one [`axpy`] per (input, row) — the backward of
/// [`forward_class_major`], whose output block it reads in place. One
/// input is the same layout either way and takes [`rank_update`]'s
/// `axpy` loop.
///
/// # Panics
/// As [`rank_update`].
pub fn rank_update_class_major(grad: &mut [f32], coeff: &[f32], xs: &[&[f32]], skip_zero: bool) {
    if xs.len() == 1 {
        return rank_update(grad, coeff, xs, skip_zero);
    }
    rank_dispatch(grad, coeff, xs, skip_zero, Coeff::RowMajor)
}

/// The checks and the dispatch of both rank updates, at
/// [`Width::current`], which also sets the column tile's cap.
fn rank_dispatch(grad: &mut [f32], coeff: &[f32], xs: &[&[f32]], skip_zero: bool, layout: Coeff) {
    let Some(first) = xs.first() else {
        assert!(coeff.is_empty(), "rank_update: coefficients without inputs");
        return;
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
    let width = Width::current();
    let cap = if width == Width::Avx512 {
        RANK_COLS
    } else {
        RANK_COLS / 2
    };
    width
        .run(
            #[inline(always)]
            |(coeff, xs, skip_zero, layout), grad, cap, _| {
                rank_body(coeff, xs, skip_zero, layout, cap, grad)
            },
            (coeff, xs, skip_zero, layout),
            grad,
            cap,
        )
        .expect("the current width is detected")
}

/// The one body of both rank updates, inlined into the function of each
/// [`Width`] it is run at: two rows at a time (a single last row takes
/// the place of both and is stored once), columns in power-of-two
/// tiles of at most `cap`, so no tile is ragged.
#[inline(always)]
fn rank_body(
    coeff: &[f32],
    xs: &[&[f32]],
    skip_zero: bool,
    layout: Coeff,
    cap: usize,
    grad: &mut [f32],
) {
    let (n, cols) = (xs.len(), xs[0].len());
    let rows = coeff.len() / n;
    // (stride between inputs, stride between rows) in `coeff`.
    let strides = match layout {
        Coeff::InputMajor => (rows, 1),
        Coeff::RowMajor => (1, n),
    };
    for r in (0..rows).step_by(2) {
        let pair = [r, (r + 1).min(rows - 1)];
        for (c, w) in binary_blocks(cols, cap) {
            let tile = (pair, c, strides);
            match w {
                1 => rank_tile::<1>(coeff, tile, xs, skip_zero, grad),
                2 => rank_tile::<2>(coeff, tile, xs, skip_zero, grad),
                4 => rank_tile::<4>(coeff, tile, xs, skip_zero, grad),
                8 => rank_tile::<8>(coeff, tile, xs, skip_zero, grad),
                16 => rank_tile::<16>(coeff, tile, xs, skip_zero, grad),
                32 => rank_tile::<32>(coeff, tile, xs, skip_zero, grad),
                _ => rank_tile::<RANK_COLS>(coeff, tile, xs, skip_zero, grad),
            }
        }
    }
}

/// One gradient tile of a rank update: columns `c..c + W` of the two
/// rows `pair`, every input innermost; input `s`'s coefficient for row
/// `r` is `coeff[s * per_input + r * per_row]`.
///
/// Two *named* row accumulators, not an array of rows: `[[f32; W]; R]`
/// under a loop over the rows is left in memory, and every input's
/// update then waits on the store before it (DESIGN.md §15).
#[inline(always)]
fn rank_tile<const W: usize>(
    coeff: &[f32],
    ([r0, r1], c, (per_input, per_row)): ([usize; 2], usize, (usize, usize)),
    xs: &[&[f32]],
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
        let (a0, a1) = (
            coeff[s * per_input + r0 * per_row],
            coeff[s * per_input + r1 * per_row],
        );
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

/// Most inputs one lane group of [`forward_class_major`] carries: the
/// models' block of 32, four AVX-512 registers of `f64` per output row.
const INPUT_LANES: usize = 32;

/// Inputs one transpose step of [`forward_class_major`] moves, and the
/// coordinates it moves of each: an 8 × 8 block of `f32`.
const TRANSPOSE: usize = 8;

/// Coordinates of one input tile of [`forward_class_major`]: `64 × 32`
/// `f64` is 16 KB, on the stack and in L1.
const INPUT_TILE: usize = 64;

/// Dense layer for a block of inputs, written class-major:
/// `out[r * xs.len() + s] = dot(w_r, xs[s]) as f32 + bias[r]`, `w`
/// row-major `bias.len() × d` as the parameters are stored — the
/// logits layer of a training step, whose softmax, error and rank
/// update then read a class's values for the whole block as lanes.
///
/// The lanes of one SIMD register are *inputs*. Up to
/// `INPUT_LANES` inputs are transposed, eight by eight coordinates at a
/// time, into a feature-major tile on the stack — `tile[c][s]`,
/// widened to `f64` once — and two output rows at a time run over it
/// with `acc_r[s] += tile[c][s] · w_r[c]`, each weight widened and
/// broadcast once per lane group. Every (input, row) pair keeps its own
/// `f64` accumulator and visits coordinates in index order exactly as
/// [`dot`] does (nothing reassociated; the product of two widened
/// `f32`s is exact, so fusing it rounds the same —
/// `add_exact_product`), so each value is bitwise the per-row `dot`
/// loop's, at every [`Width`]. An input longer than the tile streams
/// through it tile by tile, the chains continuing across tiles in
/// their registers, never restarted. Lanes past the inputs (a group of
/// fewer than 8, 16 or 32) compute on a copy of the last input and are
/// dropped, as a single last row is. A block of one input has nothing
/// to transpose and takes [`affine_rows`], whose single output row is
/// the same layout. Several run at [`Width::current`], from a function
/// kept out of line so that a disassembly names the call into its wide
/// body (`scripts/ci.sh` checks that body holds packed fused products).
///
/// # Panics
/// If an input's length is not `w.len() / bias.len()`, `w` does not
/// hold whole rows, or `out.len() != xs.len() * bias.len()`.
#[inline(never)]
pub fn forward_class_major(w: &[f32], bias: &[f32], xs: &[&[f32]], out: &mut [f32]) {
    if let [x] = xs {
        return affine_rows(w, bias, x, out);
    }
    let rows = bias.len();
    assert!(
        rows > 0 && w.len().is_multiple_of(rows),
        "forward_class_major: weights are not whole rows"
    );
    let d = w.len() / rows;
    assert_eq!(
        out.len(),
        xs.len() * rows,
        "forward_class_major: output length mismatch"
    );
    for x in xs {
        assert_eq!(x.len(), d, "forward_class_major: input length mismatch");
    }
    at_current(
        #[inline(always)]
        |(w, bias, xs), out, (), fused| class_major_body(w, bias, xs, out, fused),
        (w, bias, xs),
        out,
        (),
    )
}

/// The one body of [`forward_class_major`]: lane groups of at most
/// `INPUT_LANES` inputs, each at the fewest lanes of 8, 16 or 32 that
/// hold it: four rows at a time at 8 lanes, two at 16 and 32.
#[inline(always)]
fn class_major_body(w: &[f32], bias: &[f32], xs: &[&[f32]], out: &mut [f32], fused: bool) {
    let n = xs.len();
    for (g, group) in xs.chunks(INPUT_LANES).enumerate() {
        let at = (g * INPUT_LANES, n);
        match group.len() {
            1..=8 => class_major_group::<8, 4>(w, bias, group, at, out, fused),
            9..=16 => class_major_group::<16, 2>(w, bias, group, at, out, fused),
            _ => class_major_group::<INPUT_LANES, 2>(w, bias, group, at, out, fused),
        }
    }
}

/// One lane group of [`forward_class_major`]: `xs` (at most `L`) are
/// inputs `first..` of a block of `n`, so input `s` of the group writes
/// row `r` to `out[r * n + first + s]`.
///
/// `R` (2 or 4) rows run at a time, rows past the last repeating it.
/// Their accumulators are *named* `[f64; L]` — `L / 8` registers each
/// at AVX-512, so two rows of 32 lanes are eight independent chains and
/// four rows of 8 are four, where two rows of 8 wait on the add latency
/// (a 64 × 64 layer over 8 inputs: 6.2–7.4 → 4.2–5.0 µs on an AVX-512
/// host; four rows of 16 read slower than two) — and stay in registers
/// from the first coordinate to the last. An input of one tile is
/// transposed once for every row; a longer one streams through the tile
/// again for each group of rows.
#[inline(always)]
fn class_major_group<const L: usize, const R: usize>(
    w: &[f32],
    bias: &[f32],
    xs: &[&[f32]],
    (first, n): (usize, usize),
    out: &mut [f32],
    fused: bool,
) {
    let (rows, live) = (bias.len(), xs.len());
    let d = w.len() / rows;
    let mut tile = [[0.0f64; L]; INPUT_TILE];
    let one_tile = d <= INPUT_TILE;
    if d == INPUT_TILE {
        // A constant length: every loop of the transpose has a known
        // trip count and no block is partial.
        transpose_inputs(&mut tile, xs, 0, INPUT_TILE);
    } else if one_tile {
        transpose_inputs(&mut tile, xs, 0, d);
    }
    for r in (0..rows).step_by(R) {
        let at: [usize; 4] = std::array::from_fn(|k| (r + k).min(rows - 1));
        let (mut a0, mut a1) = ([0.0f64; L], [0.0f64; L]);
        let (mut a2, mut a3) = ([0.0f64; L], [0.0f64; L]);
        for c0 in (0..d).step_by(INPUT_TILE) {
            let t = INPUT_TILE.min(d - c0);
            if !one_tile {
                transpose_inputs(&mut tile, xs, c0, t);
            }
            let [w0, w1, w2, w3] = at.map(|r| &w[r * d + c0..][..t]);
            for ((((col, u0), u1), u2), u3) in tile[..t].iter().zip(w0).zip(w1).zip(w2).zip(w3) {
                let (u0, u1) = (*u0 as f64, *u1 as f64);
                for l in 0..L {
                    a0[l] = add_exact_product(fused, a0[l], col[l], u0);
                }
                for l in 0..L {
                    a1[l] = add_exact_product(fused, a1[l], col[l], u1);
                }
                if R == 4 {
                    let (u2, u3) = (*u2 as f64, *u3 as f64);
                    for l in 0..L {
                        a2[l] = add_exact_product(fused, a2[l], col[l], u2);
                    }
                    for l in 0..L {
                        a3[l] = add_exact_product(fused, a3[l], col[l], u3);
                    }
                }
            }
        }
        for (r, acc) in at.iter().zip([a0, a1, a2, a3]).take(R) {
            for (o, a) in out[r * n + first..][..live].iter_mut().zip(&acc) {
                *o = *a as f32 + bias[*r];
            }
        }
    }
}

/// Coordinates `c0..c0 + t` of `xs` (at most `L` inputs) widened into
/// `tile[c][s]`, eight inputs by eight coordinates at a time through
/// [`transpose8`]. Lanes past the inputs repeat the last one; a last
/// block of fewer than eight coordinates is read as zeros past `t`,
/// and its columns past `t` are written and never read. Every store is
/// a whole column of eight lanes, every load eight values or a
/// fixed-trip loop: a loop of single-lane stores is vectorised across
/// the coordinates into scatters, and a copy of a run-time length
/// becomes a `memcpy` call.
#[inline(always)]
fn transpose_inputs<const L: usize>(
    tile: &mut [[f64; L]; INPUT_TILE],
    xs: &[&[f32]],
    c0: usize,
    t: usize,
) {
    let last = xs.len() - 1;
    for k in (0..L).step_by(TRANSPOSE) {
        let x = |j: usize| &xs[(k + j).min(last)][c0..c0 + t];
        let [x0, x1, x2, x3, x4, x5, x6, x7] = [x(0), x(1), x(2), x(3), x(4), x(5), x(6), x(7)];
        for c in (0..t).step_by(TRANSPOSE) {
            let block = [
                load8(x0, c),
                load8(x1, c),
                load8(x2, c),
                load8(x3, c),
                load8(x4, c),
                load8(x5, c),
                load8(x6, c),
                load8(x7, c),
            ];
            for (dst, col) in tile[c..c + TRANSPOSE].iter_mut().zip(transpose8(block)) {
                let mut wide = [0.0f64; TRANSPOSE];
                for (v, u) in wide.iter_mut().zip(col) {
                    *v = u as f64;
                }
                dst[k..k + TRANSPOSE].copy_from_slice(&wide);
            }
        }
    }
}

/// `x[c..c + 8]`, zeros past the end of `x`.
#[inline(always)]
fn load8(x: &[f32], c: usize) -> [f32; TRANSPOSE] {
    let mut v = [0.0f32; TRANSPOSE];
    match x.get(c..c + TRANSPOSE) {
        Some(whole) => v.copy_from_slice(whole),
        None => {
            for (i, v) in v.iter_mut().enumerate() {
                *v = x.get(c + i).copied().unwrap_or(0.0);
            }
        }
    }
    v
}

/// An 8 × 8 transpose, `out[c][s] = rows[s][c]`, as three rounds of
/// two-source interleaves — a shape the compiler turns into vector
/// shuffles, where a loop of strided stores became scatters.
#[inline(always)]
fn transpose8(rows: [[f32; TRANSPOSE]; TRANSPOSE]) -> [[f32; TRANSPOSE]; TRANSPOSE] {
    type V = [f32; TRANSPOSE];
    // Within each half of `a` and `b`: their values 0, 1 (or 2, 3)
    // alternately; their pairs 0 (or 1) in turn; their low (or high)
    // halves.
    let lo1 = |a: V, b: V| [a[0], b[0], a[1], b[1], a[4], b[4], a[5], b[5]];
    let hi1 = |a: V, b: V| [a[2], b[2], a[3], b[3], a[6], b[6], a[7], b[7]];
    let lo2 = |a: V, b: V| [a[0], a[1], b[0], b[1], a[4], a[5], b[4], b[5]];
    let hi2 = |a: V, b: V| [a[2], a[3], b[2], b[3], a[6], a[7], b[6], b[7]];
    let lo4 = |a: V, b: V| [a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3]];
    let hi4 = |a: V, b: V| [a[4], a[5], a[6], a[7], b[4], b[5], b[6], b[7]];
    let [r0, r1, r2, r3, r4, r5, r6, r7] = rows;
    let (t0, t1, t2, t3) = (lo1(r0, r1), hi1(r0, r1), lo1(r2, r3), hi1(r2, r3));
    let (t4, t5, t6, t7) = (lo1(r4, r5), hi1(r4, r5), lo1(r6, r7), hi1(r6, r7));
    let (u0, u1, u2, u3) = (lo2(t0, t2), hi2(t0, t2), lo2(t1, t3), hi2(t1, t3));
    let (u4, u5, u6, u7) = (lo2(t4, t6), hi2(t4, t6), lo2(t5, t7), hi2(t5, t7));
    [
        lo4(u0, u4),
        lo4(u1, u5),
        lo4(u2, u6),
        lo4(u3, u7),
        hi4(u0, u4),
        hi4(u1, u5),
        hi4(u2, u6),
        hi4(u3, u7),
    ]
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
/// Rows are processed in register blocks of `BLOCK_ROWS`, so `a` is
/// streamed once per block instead of once per row — the cache-blocking
/// half of the Krum distance-matrix optimization. Byte-stability: every
/// pair keeps its *own* `f64` accumulator and visits coordinates in
/// index order, so each `out[k]` is bitwise-equal to `dist_sq(a,
/// rows[k])` (the naive reference retained in [`reference`](mod@reference)).
///
/// The AGR crafts' bisection (`hfl_attacks::model_poison`) measures each
/// candidate against the honest rows through it: the candidate changes
/// every step, so there is no set of rows for a [`dist_sq_pairs`] panel
/// to be built once and reused against, and four independent add chains
/// run four times the distances of one.
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
/// (`add_exact_product`) — so the width a kernel runs at cannot change
/// a bit of its result, only how many lanes one instruction carries.
/// The exception is [`forward_approx`], whose values are a bound's
/// input and differ from width to width by contract.
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

thread_local! {
    /// The width an enclosing [`with_width`] holds this thread's kernels
    /// at; `None` outside every scope.
    static SCOPED_WIDTH: Cell<Option<Width>> = const { Cell::new(None) };
}

impl Width {
    /// Every width, widest first.
    pub const ALL: [Width; 3] = [Width::Avx512, Width::Avx2, Width::Plain];

    /// The widest width the running CPU has.
    fn widest() -> Width {
        Width::ALL
            .into_iter()
            .find(|w| w.detected())
            .expect("the plain width runs anywhere")
    }

    /// The width a kernel called now on this thread runs at: an
    /// enclosing [`with_width`]'s, or else the widest the CPU has — the
    /// one width decision. Every kernel reads it once, when it is
    /// called, and hands it to the work it splits across threads.
    pub fn current() -> Width {
        match SCOPED_WIDTH.with(Cell::get) {
            Some(scoped) => scoped,
            None => Width::widest(),
        }
    }

    /// Whether the running CPU has this width.
    fn detected(self) -> bool {
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

    /// [`at_current`] at this width, or `None` when the CPU lacks it —
    /// for a kernel that also needs the width for itself (a tile cap),
    /// which reads [`Width::current`] once and calls this.
    #[inline]
    pub(crate) fn run<A, B, C, R>(
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

/// Runs `f` with every kernel it calls on this thread at `width`
/// ([`Width::current`] returns it for the length of the call), and puts
/// back the width in force before when `f` returns or unwinds; `None`,
/// without running `f`, when the CPU lacks `width`. A kernel hands the
/// width it read to the work it splits across threads itself; a job
/// that `f` forks onto `hfl_parallel`'s workers runs at their own
/// [`Width::current`]. Modelled on `hfl_parallel::with_threads`; no
/// production path opens a scope, and the differential tests run each
/// public kernel under every width the host has.
pub fn with_width<R>(width: Width, f: impl FnOnce() -> R) -> Option<R> {
    struct Restore(Option<Width>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_WIDTH.with(|s| s.set(self.0));
        }
    }
    if !width.detected() {
        return None;
    }
    let _restore = Restore(SCOPED_WIDTH.with(|s| s.replace(Some(width))));
    Some(f())
}

/// Runs `kernel(a, b, c, fused)` inside a function compiled for
/// [`Width::current`]. `fused` is whether that function has `fma` — a
/// literal in each, so `add_exact_product`'s branch on it folds away; a
/// kernel without an exact product ignores it. The kernel is vectorised
/// at the width only if it is inlined into that function: pass an
/// `#[inline(always)]` *closure* (a function item goes through a call
/// shim that carries no such mark and is left out of line, at the
/// baseline width) over `#[inline(always)]` functions.
///
/// The closure takes its operands as three parameters — by convention
/// inputs, output, scratch; pass `()` for what a kernel lacks — and
/// captures nothing, because parameters are the wide function's own: a
/// `&mut` output keeps the `noalias` it has as a parameter and loses in
/// a closure's environment or a tuple, and without it
/// [`dist_sq_pairs`]' inner loop is vectorised with one more shuffle a
/// step (`agg_wide` −5 %).
#[inline]
pub fn at_current<A, B, C, R>(kernel: impl FnOnce(A, B, C, bool) -> R, a: A, b: B, c: C) -> R {
    Width::current()
        .run(kernel, a, b, c)
        .expect("the current width is detected")
}

/// One block of the pairwise squared-distance matrix: for the partner
/// rows `first..first + w` (`w = min(PAIR_LANES, n − first)`) and every
/// row `j` after each of them, `chunk[k * n + j] = dist_sq(rows[first +
/// k], rows[j])` — `chunk` is rows `first..first + w` of the flat
/// `n × n` matrix, so the blocks together fill its upper triangle. The
/// rest of `chunk` (diagonal and lower triangle) is zeroed.
///
/// The partners are transposed, one `PAIR_TILE`-coordinate tile at a
/// time, into a feature-major panel on the stack; later rows stream
/// past it two at a time with `acc[k] += ((p[c][k] − x[c]) as f64)²`,
/// and the accumulators rest in `chunk` between tiles. Every pair keeps
/// its own accumulator and visits coordinates in index order exactly as
/// [`dist_sq`] does (same NaN canonicalization; the difference is taken
/// in `f32` and then widened, so its square is exact and fusing it into
/// the add rounds the same — `add_exact_product`), so each value is
/// bitwise `dist_sq`'s — what the layout changes is that the lanes of
/// one SIMD register are *pairs*.
///
/// The body is compiled at every [`Width`] and runs at
/// [`Width::current`]. Its one caller is [`pairwise_dist_sq`], so no
/// fill bypasses the collapse of repeated rows.
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
    at_current(
        #[inline(always)]
        |(rows, first), chunk, (), fused| pairs_body(rows, first, chunk, fused),
        (rows, first),
        chunk,
        (),
    )
}

/// The whole matrix [`dist_sq_pairs`] fills a block of: `dists` resized
/// to `n × n`, `dists[lo * n + hi] = dist_sq(rows[lo], rows[hi])` for
/// `lo < hi`, zero elsewhere, at [`Width::current`] — read once, and
/// every block runs at it on whichever thread. The matrix is cut into
/// its blocks' rows, `PAIR_LANES · n` elements each, and `split(dists,
/// len, fill)` must hand every `len`-element chunk to `fill(offset,
/// chunk)` once — in any order, on any thread
/// (`hfl_parallel::par_chunks_mut` has this shape), which cannot change
/// a value. Block 0 pairs its rows with the most rows after them, so
/// ascending claim order is heaviest-first; up to [`PAIR_LANES`] rows is
/// one chunk.
///
/// A row that is a bitwise copy of an earlier one is measured once
/// ([`RowGroups`]): past one block, the blocks run over the `m` distinct
/// rows only — an `m × m` matrix in the front of `dists`, cut the same
/// way — and that matrix is expanded in place into the `n × n` one. The
/// distance between two copies is `dist_sq(rep, rep)`, computed once per
/// repeated row. Every entry is the bits it would have had unexpanded:
/// each pair's chain is its own, whatever else is in its block.
///
/// # Panics
/// If a row's length differs from the first's.
pub fn pairwise_dist_sq(
    rows: &[&[f32]],
    dists: &mut Vec<f64>,
    groups: &mut RowGroups,
    split: impl FnOnce(&mut [f64], usize, &(dyn Fn(usize, &mut [f64]) + Sync)),
) {
    let width = Width::current();
    let n = rows.len();
    for r in rows {
        check_same_len(rows[0], r);
    }
    // No `clear`: the fill and the expansion overwrite every element.
    dists.resize(n * n, 0.0);
    // One block already streams every row past one panel: nothing to
    // save, so nothing is looked for.
    let m = if n > PAIR_LANES {
        groups.detect(rows)
    } else {
        n
    };
    let mut distinct = groups.distinct.take();
    let measured: &[&[f32]] = if m < n {
        distinct.extend(groups.groups.iter().map(|g| rows[g.first]));
        &distinct
    } else {
        rows
    };
    if m > 0 {
        split(&mut dists[..m * m], PAIR_LANES * m, &|base, chunk| {
            with_width(width, || dist_sq_pairs(measured, base / m, chunk))
                .expect("the caller's width is detected")
        });
    }
    groups.distinct.put(distinct);
    if m < n {
        groups.expand(rows, dists);
    }
}

/// Lanes of a row's bucket key ([`RowGroups`]): coordinate `c` adds its
/// bits into lane `c % KEY_LANES`, so the key is one pass at any width.
const KEY_LANES: usize = 16;

/// Which rows of a set are bitwise copies of an earlier row — what
/// [`pairwise_dist_sq`] measures once — kept in caller-owned buffers so
/// a warm fill allocates nothing.
///
/// Detection first reads each row's first `KEY_LANES` coordinates:
/// copies agree there too, so when no two rows agree there, there is no
/// copy, and that is all a set of distinct rows costs. Otherwise it
/// makes one pass over every row for its bucket key (a
/// `KEY_LANES`-lane wrapping sum of its bits, folded into one word),
/// then *one* exact bit comparison of each row against the first row of
/// its bucket; a mismatch makes the row distinct. So rows built to share
/// a key cost at most one extra read each, and no two rows merge unless
/// every bit agrees — `0.0` and `-0.0` stay apart, and a NaN row matches
/// only its own copies.
#[derive(Debug, Default)]
pub struct RowGroups {
    /// `of[i]`: the group of row `i`. Groups are numbered by first
    /// appearance, so `of[i] ≤ i`.
    of: Vec<usize>,
    /// The distinct rows, in order of first appearance.
    groups: Vec<Group>,
    /// The distinct rows' refs, parked between fills.
    distinct: RefPool,
}

/// One distinct row of a [`RowGroups`].
#[derive(Debug)]
struct Group {
    /// Its bucket key.
    key: u64,
    /// The row that opened it.
    first: usize,
    /// Whether a later row is a copy of it.
    repeated: bool,
}

impl RowGroups {
    /// Groups `rows` (equal lengths) at [`Width::current`]; returns how
    /// many are distinct.
    fn detect(&mut self, rows: &[&[f32]]) -> usize {
        at_current(
            #[inline(always)]
            |rows, groups: &mut Self, (), _| groups.detect_body(rows),
            rows,
            &mut *self,
            (),
        );
        self.groups.len()
    }

    /// The one body of [`Self::detect`].
    #[inline(always)]
    fn detect_body(&mut self, rows: &[&[f32]]) {
        self.of.clear();
        self.groups.clear();
        // Rows whose first tiles all differ hold no copy.
        let head = KEY_LANES.min(rows[0].len());
        let distinct = rows.iter().enumerate().all(|(i, row)| {
            let key = row_key(&row[..head]);
            let new = self.groups.iter().all(|g| g.key != key);
            self.open(key, i);
            new
        });
        if distinct {
            self.of.extend(0..rows.len());
            return;
        }
        self.groups.clear();
        for (i, row) in rows.iter().enumerate() {
            let key = row_key(row);
            let g = match self.groups.iter().position(|g| g.key == key) {
                Some(b) if same_bits(rows[self.groups[b].first], row) => {
                    self.groups[b].repeated = true;
                    b
                }
                _ => self.open(key, i),
            };
            self.of.push(g);
        }
    }

    /// Opens a group for row `first`; returns its number.
    fn open(&mut self, key: u64, first: usize) -> usize {
        self.groups.push(Group {
            key,
            first,
            repeated: false,
        });
        self.groups.len() - 1
    }

    /// Expands the `m × m` upper triangle of the distinct rows at the
    /// front of `dists` into the `n × n` one of every row, in place. A
    /// repeated group's own entry, `dist_sq(rep, rep)`, goes on the small
    /// matrix's diagonal first. Back to front is safe: entry `(i, j)`,
    /// `i < j`, reads `(min, max)` of `(of[i], of[j])`, at index
    /// `≤ i·m + j ≤ i·n + j` — at or before its own, so not yet
    /// overwritten.
    fn expand(&self, rows: &[&[f32]], dists: &mut [f64]) {
        let (n, m) = (self.of.len(), self.groups.len());
        for (g, group) in self.groups.iter().enumerate() {
            if group.repeated {
                let rep = rows[group.first];
                dists[g * m + g] = dist_sq(rep, rep);
            }
        }
        for i in (0..n).rev() {
            for j in (0..n).rev() {
                dists[i * n + j] = if i < j {
                    let (a, b) = (self.of[i], self.of[j]);
                    dists[a.min(b) * m + a.max(b)]
                } else {
                    0.0
                };
            }
        }
    }
}

/// A row's bucket key: lane `k` is the wrapping sum of the bits of
/// coordinates `k, k + KEY_LANES, …`, and the lanes fold into one word,
/// each rotated by its own distance, so a bucket is found by comparing
/// words.
#[inline(always)]
fn row_key(row: &[f32]) -> u64 {
    let mut lanes = [0u32; KEY_LANES];
    let mut tiles = row.chunks_exact(KEY_LANES);
    for tile in &mut tiles {
        for (k, x) in lanes.iter_mut().zip(tile) {
            *k = k.wrapping_add(x.to_bits());
        }
    }
    for (k, x) in lanes.iter_mut().zip(tiles.remainder()) {
        *k = k.wrapping_add(x.to_bits());
    }
    let mut key = 0u64;
    for k in lanes {
        key = key.rotate_left(11) ^ u64::from(k);
    }
    key
}

/// Whether two rows of one length agree in every bit, read whole.
#[inline(always)]
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    let mut diff = [0u32; KEY_LANES];
    let (mut ta, mut tb) = (a.chunks_exact(KEY_LANES), b.chunks_exact(KEY_LANES));
    for (x, y) in (&mut ta).zip(&mut tb) {
        for (d, (x, y)) in diff.iter_mut().zip(x.iter().zip(y)) {
            *d |= x.to_bits() ^ y.to_bits();
        }
    }
    for (d, (x, y)) in diff
        .iter_mut()
        .zip(ta.remainder().iter().zip(tb.remainder()))
    {
        *d |= x.to_bits() ^ y.to_bits();
    }
    diff.iter().all(|d| *d == 0)
}

/// Recycles the capacity of `Vec<&[f32]>` across borrow lifetimes.
#[derive(Debug, Default)]
pub struct RefPool {
    /// Always empty: only its capacity is kept.
    parked: Vec<&'static [f32]>,
}

/// An empty vector's allocation under another element lifetime:
/// collecting a `vec::IntoIter` through `map` reuses the allocation in
/// place, and an empty vector has no element for the map to touch.
fn rebind<'a>(mut v: Vec<&[f32]>) -> Vec<&'a [f32]> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector was emptied"))
        .collect()
}

impl RefPool {
    /// An empty ref-vector with recycled capacity, usable for any
    /// borrow lifetime.
    pub fn take<'a>(&mut self) -> Vec<&'a [f32]> {
        rebind(std::mem::take(&mut self.parked))
    }

    /// Parks a ref-vector's capacity for the next call.
    pub fn put(&mut self, v: Vec<&[f32]>) {
        self.parked = rebind(v);
    }
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
/// fused in blocks of `BLOCK_ROWS` so `out` is read and written once
/// per block instead of once per row. Byte-stability: for every
/// coordinate the partial sums are added in exactly the row order the
/// sequential `add_assign` chain would produce (`((out+r₀)+r₁)+…`,
/// left-associated), so the result is bitwise identical.
pub fn add_rows(rows: &[&[f32]], out: &mut [f32]) {
    add_rows_by(rows.len(), |k| rows[k], out);
}

/// `out += row(0) + row(1) + … + row(n − 1)`: the blocked body of
/// [`add_rows`] and [`mean_of_indexed`], `BLOCK_ROWS` rows a pass over
/// `out`, each coordinate's adds left-associated in row order.
#[inline(always)]
fn add_rows_by<'r>(n: usize, row: impl Fn(usize) -> &'r [f32], out: &mut [f32]) {
    let mut k = 0;
    while k + BLOCK_ROWS <= n {
        let (r0, r1, r2, r3) = (row(k), row(k + 1), row(k + 2), row(k + 3));
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
    while k < n {
        add_assign(row(k), out);
        k += 1;
    }
}

/// Fused multi-row axpy: `out += w₀·r₀ + w₁·r₁ + …` in row order, with
/// the same left-associated per-coordinate add chain a sequence of
/// [`axpy`] calls would produce — bitwise identical, one pass over
/// `out` per block of `BLOCK_ROWS` rows.
pub fn axpy_rows(weights: &[f32], rows: &[&[f32]], out: &mut [f32]) {
    assert_eq!(rows.len(), weights.len(), "rows/weights length mismatch");
    let mut k = 0;
    while k + BLOCK_ROWS <= rows.len() {
        let (r0, r1, r2, r3) = (rows[k], rows[k + 1], rows[k + 2], rows[k + 3]);
        let (w0, w1, w2, w3) = (weights[k], weights[k + 1], weights[k + 2], weights[k + 3]);
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
/// identical to [`mean_of`] over the gathered rows: the same blocked
/// body, reading its rows through `idx`.
pub fn mean_of_indexed(rows: &[&[f32]], idx: &[usize], out: &mut [f32]) {
    assert!(!idx.is_empty(), "mean_of: empty input");
    zero(out);
    add_rows_by(idx.len(), |k| rows[idx[k]], out);
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
    /// bias — what [`affine_rows`] and [`forward_class_major`] must
    /// reproduce bit for bit.
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

    /// `f` under `with_width(w, f)`, or as called for `None` (the
    /// dispatch); `None` when the CPU lacks `w`.
    fn at<R>(width: Option<Width>, f: impl FnOnce() -> R) -> Option<R> {
        match width {
            Some(w) => with_width(w, f),
            None => Some(f()),
        }
    }

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
                    let fill = || {
                        for (b, chunk) in got.chunks_mut(PAIR_LANES * n).enumerate() {
                            dist_sq_pairs(&refs, b * PAIR_LANES, chunk);
                        }
                    };
                    if at(width, fill).is_none() {
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
        for width in Width::ALL {
            let mut got = vec![f64::NAN; n * n];
            let fill = || {
                for (b, chunk) in got.chunks_mut(PAIR_LANES * n).enumerate() {
                    dist_sq_pairs(&refs, b * PAIR_LANES, chunk);
                }
            };
            if with_width(width, fill).is_none() {
                continue;
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

    /// A scope holds `Width::current` for the length of the call only:
    /// a nested scope puts back the outer width, the outermost puts back
    /// none, and so does a scope that unwinds — removing the restore
    /// leaves `Plain` in force past both.
    #[test]
    fn a_width_scope_restores_the_outer_width_on_return_and_on_unwind() {
        let scoped = || SCOPED_WIDTH.with(Cell::get);
        assert_eq!(scoped(), None);
        let widest = Width::current();
        with_width(Width::Plain, || {
            assert_eq!(Width::current(), Width::Plain);
            for width in Width::ALL {
                with_width(width, || assert_eq!(Width::current(), width));
                assert_eq!(scoped(), Some(Width::Plain), "{width:?}");
            }
        })
        .expect("the plain width runs anywhere");
        assert_eq!((scoped(), Width::current()), (None, widest));
        let unwound = std::panic::catch_unwind(|| {
            with_width(Width::Plain, || panic!("inside the scope"));
        });
        assert!(unwound.is_err());
        assert_eq!((scoped(), Width::current()), (None, widest));
    }

    /// A width the CPU lacks runs nothing and answers `None`; one it has
    /// runs `f` once.
    #[test]
    fn a_width_the_cpu_lacks_runs_nothing() {
        for width in Width::ALL {
            let mut runs = 0;
            let got = with_width(width, || runs += 1);
            assert_eq!(got.is_some(), width.detected(), "{width:?}");
            assert_eq!(runs, usize::from(width.detected()), "{width:?}");
            println!(
                "{width:?}: {}",
                if got.is_some() {
                    "ran"
                } else {
                    "not on this CPU"
                }
            );
        }
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

    /// Rows that share a bucket key but not every bit stay apart — one
    /// unit of bits moved between two coordinates of one key lane, a
    /// zero's sign, a NaN's payload — while copies merge, and the fill
    /// over them reads as `dist_sq` per pair. (The differential suite
    /// runs the fill over coalitions at every width and thread count.)
    #[test]
    fn only_rows_equal_in_every_bit_merge() {
        let d = 40;
        let a: Vec<f32> = (0..d).map(|c| c as f32 * 0.25 + 1.0).collect();
        let mut shifted = a.clone();
        shifted[d - 1] = f32::from_bits(a[d - 1].to_bits() + 1);
        shifted[d - 1 - KEY_LANES] = f32::from_bits(a[d - 1 - KEY_LANES].to_bits() - 1);
        assert_eq!(row_key(&a), row_key(&shifted));
        let mut zero = a.clone();
        zero[3] = 0.0;
        let mut negative_zero = a.clone();
        negative_zero[3] = -0.0;
        let mut nan = a.clone();
        nan[5] = f32::NAN;
        let mut other_nan = a.clone();
        other_nan[5] = f32::from_bits(f32::NAN.to_bits() | 1);
        let rows = [
            &a,
            &shifted,
            &zero,
            &negative_zero,
            &nan,
            &other_nan,
            &a,
            &nan,
            &zero,
        ];
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut groups = RowGroups::default();
        // First tiles that differ settle it; equal ones send the rows
        // through the key pass and the comparison.
        assert_eq!(groups.detect(&[&a, &zero]), 2);
        assert_eq!(groups.detect(&[&a, &shifted]), 2);
        assert_eq!(groups.detect(&refs), 6);
        assert_eq!(groups.of, [0, 1, 2, 3, 4, 5, 0, 4, 2]);
        let mut got = Vec::new();
        pairwise_dist_sq(&refs, &mut got, &mut groups, |dists, len, fill| {
            for (b, chunk) in dists.chunks_mut(len).enumerate() {
                fill(b * len, chunk);
            }
        });
        let n = refs.len();
        for i in 0..n {
            for j in i + 1..n {
                let want = dist_sq(refs[i], refs[j]);
                assert_eq!(got[i * n + j].to_bits(), want.to_bits(), "({i}, {j})");
            }
        }
    }

    #[test]
    fn ref_pool_recycles_capacity_across_borrows() {
        let mut refs = RefPool::default();
        let rows = [vec![1.0f32; 8], vec![2.0f32; 8]];
        let mut v = refs.take();
        v.extend(rows.iter().map(|r| r.as_slice()));
        let cap = v.capacity();
        refs.put(v);
        drop(rows);
        let other = [vec![3.0f32; 8]];
        let mut v2 = refs.take();
        v2.push(other[0].as_slice());
        assert!(v2.capacity() >= cap.max(1));
        assert_eq!(v2.len(), 1);
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
        assert_eq!(split(65, RANK_COLS), [(0, 64), (64, 1)]);
        assert_eq!(split(65, RANK_COLS / 2), [(0, 32), (32, 32), (64, 1)]);
        assert_eq!(split(7, RANK_COLS), [(0, 4), (4, 2), (6, 1)]);
        assert!(split(0, PANEL_LANES).is_empty());
        // A panel's single last row shares its tile with a lane of zeros.
        let mut panel: Panel = Panel::default();
        panel.fill([&[1.0; 19 * 3][..]], 19, 3);
        let full: Vec<_> = (0..16)
            .step_by(panel.lanes)
            .map(|r| (r, panel.lanes))
            .collect();
        assert_eq!(
            panel.tiles().collect::<Vec<_>>(),
            [&full[..], &[(16, 2), (18, 2)]].concat()
        );
        assert_eq!(panel.data.len(), 20 * 3);
        assert_eq!(panel.data[18 * 3..], [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
    }

    /// Both dense kernels against `dot` + bias per row: every row count
    /// 1–33 (every lockstep block of `affine_rows`, row pairs whole and
    /// with a single last row) at short, odd, paper and long row
    /// lengths, over NaN, ±∞, subnormals and signed zeros; the block
    /// kernel under 1–6 inputs, one of them the single input it hands
    /// to `affine_rows`. The every-width grid is
    /// `tests/kernel_equivalence.rs`'s.
    #[test]
    fn dense_kernels_bitwise_match_dot_per_row() {
        for d in [1usize, 7, 64, 129] {
            for rows in 1usize..=33 {
                let data = synth_rows(rows + 2, d.max(rows));
                let w: Vec<f32> = data[..rows].iter().flat_map(|r| &r[..d]).copied().collect();
                let bias = &data[rows][..rows];
                let xs: Vec<&[f32]> = (0..1 + rows % 6)
                    .map(|s| &data[(rows + 1 + s) % (rows + 2)][..d])
                    .collect();
                let mut block = vec![f32::NAN; xs.len() * rows];
                forward_class_major(&w, bias, &xs, &mut block);
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
                        let got = block[r * xs.len() + s];
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
    #[should_panic(expected = "weight shape mismatch")]
    fn panel_fill_rejects_a_mis_shaped_matrix() {
        Panel::default().fill([&[0.0; 7][..]], 2, 4);
    }

    /// The approximate pass over a panel, at every width the host has
    /// and under both tile caps, writes row `r` of input `s` to `out[r *
    /// n + s]`: exactly `dot`
    /// where every partial sum is exact (small integers), and within
    /// `γₙ·‖w_r‖·‖x‖ + n·2⁻¹⁴⁹` of it over full-mantissa values. Rows
    /// 1–33 cover every tile shape, a padded last lane among them;
    /// inputs 1–6 a short, a full and a ragged second group of four.
    #[test]
    fn approximate_pass_is_the_dot_within_its_bound_at_every_width() {
        let mut narrow = Panel::default();
        let u = f32::EPSILON as f64 / 2.0;
        for d in [1usize, 7, 64, 129] {
            for rows in 1usize..=33 {
                let data = synth_rows(rows + 7, d);
                let finite = |v: f32| if v.is_finite() { v } else { 0.5 };
                let w: Vec<f32> = data[..rows].iter().flatten().map(|v| finite(*v)).collect();
                let ints: Vec<f32> = (0..rows * d).map(|i| (i % 7) as f32 - 3.0).collect();
                let xs: Vec<Vec<f32>> = (0..1 + rows % 6)
                    .map(|s| data[rows + s].iter().map(|v| finite(*v)).collect())
                    .collect();
                let xs: Vec<&[f32]> = xs.iter().map(|x| &x[..]).collect();
                let small: Vec<Vec<f32>> = xs
                    .iter()
                    .map(|x| x.iter().map(|v| v.round() % 5.0).collect())
                    .collect();
                let small: Vec<&[f32]> = small.iter().map(|x| &x[..]).collect();
                let mut out = vec![f32::NAN; xs.len() * rows];
                for cap in [Width::Avx512, Width::Plain] {
                    if with_width(cap, || narrow.fill([&w[..]], rows, d)).is_none() {
                        continue;
                    }
                    for width in Width::ALL {
                        let pass = || forward_approx(&narrow, &xs, &mut out);
                        if with_width(width, pass).is_none() {
                            continue;
                        }
                        for (r, row) in w.chunks_exact(d).enumerate() {
                            for (s, x) in xs.iter().enumerate() {
                                let (got, real) = (out[r * xs.len() + s] as f64, dot(row, x));
                                let gamma = d as f64 * u / (1.0 - d as f64 * u);
                                let bound = gamma * norm(row) * norm(x)
                                    + d as f64 * f64::from(f32::from_bits(1));
                                assert!(
                                    (got - real).abs() <= bound,
                                    "{width:?} rows={rows} d={d} row {r} input {s}: {got} vs {real}"
                                );
                            }
                        }
                    }
                    with_width(cap, || narrow.fill([&ints[..]], rows, d));
                    for width in Width::ALL {
                        let pass = || forward_approx(&narrow, &small, &mut out);
                        if with_width(width, pass).is_none() {
                            continue;
                        }
                        for (r, row) in ints.chunks_exact(d).enumerate() {
                            for (s, x) in small.iter().enumerate() {
                                let got = out[r * small.len() + s];
                                assert_eq!(got, dot(row, x) as f32, "{width:?} rows={rows} d={d}");
                            }
                        }
                    }
                }
            }
        }
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

    /// Values for the class-major kernels: full mantissas across 21
    /// binades (a reordered or restarted chain shows in the last bits),
    /// and with `edges` one in eight NaN, `±∞`, a subnormal, `±0` or
    /// `±f32::MAX`.
    fn class_major_values(seed: u64, n: usize, edges: bool) -> Vec<f32> {
        (0..n as u64)
            .map(|j| {
                let mut x = (seed << 40 | j)
                    .wrapping_add(3)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                x ^= x >> 29;
                let finite = f32::from_bits(
                    ((x >> 20) as u32 & 0x807f_ffff) | (117 + (x % 21) as u32) << 23,
                );
                let edge = [
                    f32::NAN,
                    f32::INFINITY,
                    f32::NEG_INFINITY,
                    f32::MIN_POSITIVE / 2.0,
                    -0.0,
                    0.0,
                    f32::MAX,
                    -f32::MAX,
                ];
                match x % 64 {
                    k if edges && k < 8 => edge[k as usize],
                    _ => finite,
                }
            })
            .collect()
    }

    /// Bits equal, or both NaN (a NaN's payload is unspecified).
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan()
    }

    /// `count` rows of `d` [`class_major_values`] (`edges` on every fourth,
    /// from `edge_at`). On every other row, each coordinate `c ≡ 0 (mod
    /// 4)` is repeated at `c + 2`, 2³⁰ times larger and negated there in
    /// an input. Where two such rows meet, the products run big, small,
    /// minus big, small, …: every small one after a big one is rounded at
    /// the big one's scale and the big ones cancel exactly, so the `f32`
    /// result shows a chain reordered (any two coordinates but the first
    /// pair), restarted or reassociated — which a chain of like
    /// magnitudes, rounded once more to `f32`, hides.
    fn class_major_rows(
        count: usize,
        d: usize,
        seed: u64,
        edge_at: usize,
        weights: bool,
    ) -> Vec<f32> {
        (0..count)
            .flat_map(|i| {
                let mut row = class_major_values(seed + i as u64, d, i % 4 == edge_at);
                if i % 2 == 1 {
                    for c in (0..d.saturating_sub(2)).step_by(4) {
                        if !weights {
                            row[c] *= (1u64 << 30) as f32;
                        }
                        row[c + 2] = if weights { row[c] } else { -row[c] };
                    }
                }
                row
            })
            .collect()
    }

    /// Every compiled width the host can run, and the dispatch, against
    /// one `dot` per (input, row) plus the bias: lane groups short, full
    /// and several (n), tiles short, exact, one past and several (d),
    /// row pairs whole and with a single last row. Every fourth input
    /// and weight row holds edge values, and half of them cancel
    /// ([`class_major_rows`]); the buffer starts dirty.
    #[test]
    fn forward_class_major_matches_dot_per_row_at_every_width() {
        let mut ran = Vec::new();
        let (mut finite, mut other) = (0usize, 0usize);
        for d in [1usize, 7, 64, 65, 257] {
            for rows in [2usize, 3, 8, 10, 16, 17] {
                let w = class_major_rows(rows, d, 0, 3, true);
                let bias = class_major_values(99, rows, false);
                for n in (1..=9).chain([15, 16, 17, 31, 32, 33]) {
                    let x = class_major_rows(n, d, 100, 2, false);
                    let xs: Vec<&[f32]> = x.chunks_exact(d).collect();
                    let mut want = vec![0.0f32; n * rows];
                    for (s, x) in xs.iter().enumerate() {
                        for r in 0..rows {
                            want[r * n + s] = dot(&w[r * d..(r + 1) * d], x) as f32 + bias[r];
                        }
                    }
                    finite += want.iter().filter(|v| v.is_finite()).count();
                    other += want.iter().filter(|v| !v.is_finite()).count();
                    // `None` is the dispatch.
                    for width in Width::ALL.into_iter().map(Some).chain([None]) {
                        let mut got = vec![f32::NAN; n * rows];
                        if at(width, || forward_class_major(&w, &bias, &xs, &mut got)).is_none() {
                            continue;
                        }
                        if !ran.contains(&width) {
                            ran.push(width);
                        }
                        for (i, (g, e)) in got.iter().zip(&want).enumerate() {
                            assert!(
                                same(*g, *e),
                                "{width:?} d={d} rows={rows} n={n} row {} input {}: {g} vs {e}",
                                i / n,
                                i % n
                            );
                        }
                    }
                }
            }
        }
        // The grid is worth the comparison: most logits are finite.
        assert!(finite > other && other > 0, "{finite} / {other}");
        assert!(
            ran.contains(&Some(Width::Plain)) && ran.contains(&None),
            "{ran:?}"
        );
        println!("forward_class_major widths run on this host: {ran:?}");
    }

    #[test]
    fn forward_class_major_of_no_inputs_writes_nothing_and_of_no_coordinates_the_bias() {
        forward_class_major(&[], &[1.0, 2.0], &[], &mut []);
        let mut out = [0.0f32; 6];
        forward_class_major(&[], &[1.0, 2.0], &[&[], &[], &[]], &mut out);
        assert_eq!(out, [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn forward_class_major_rejects_a_short_input() {
        forward_class_major(&[0.0; 8], &[0.0; 2], &[&[0.0; 4], &[0.0; 3]], &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn forward_class_major_rejects_an_output_of_another_height() {
        forward_class_major(&[0.0; 8], &[0.0; 2], &[&[0.0; 4], &[0.0; 4]], &mut [0.0; 3]);
    }

    /// The class-major rank update at every compiled width the host can
    /// run, and the dispatch, against one `axpy` per (input, row), inputs
    /// in order, a zero coefficient's `axpy` skipped or not: columns in
    /// one tile, several and ragged, at either tile cap; `±∞` among the
    /// inputs and exact zeros (`±0`) among the coefficients, so a zero
    /// that is not skipped turns a row NaN.
    #[test]
    fn rank_update_class_major_matches_the_axpy_loop_at_every_width() {
        let mut ran = Vec::new();
        for cols in [1usize, 7, 32, 64, 65, 130] {
            for rows in [1usize, 2, 3, 10, 17] {
                for n in [1usize, 2, 5, 32, 33] {
                    let x: Vec<f32> = (0..n)
                        .flat_map(|s| class_major_values(7 + s as u64, cols, s % 3 == 1))
                        .map(|v| if v.is_nan() { f32::INFINITY } else { v })
                        .collect();
                    let xs: Vec<&[f32]> = x.chunks_exact(cols).collect();
                    let coeff: Vec<f32> = class_major_values(5, rows * n, false)
                        .iter()
                        .enumerate()
                        .map(|(i, v)| match i % 5 {
                            0 => 0.0,
                            3 => -0.0,
                            _ => *v,
                        })
                        .collect();
                    let start = class_major_values(6, rows * cols, false);
                    for skip_zero in [true, false] {
                        let mut want = start.clone();
                        for (s, x) in xs.iter().enumerate() {
                            for (r, row) in want.chunks_exact_mut(cols).enumerate() {
                                let a = coeff[r * n + s];
                                if !(skip_zero && a == 0.0) {
                                    axpy(a, x, row);
                                }
                            }
                        }
                        for width in Width::ALL.into_iter().map(Some).chain([None]) {
                            let mut got = start.clone();
                            let update =
                                || rank_update_class_major(&mut got, &coeff, &xs, skip_zero);
                            if at(width, update).is_none() {
                                continue;
                            }
                            if !ran.contains(&width) {
                                ran.push(width);
                            }
                            for (i, (g, e)) in got.iter().zip(&want).enumerate() {
                                assert!(
                                    same(*g, *e),
                                    "{width:?} cols={cols} rows={rows} n={n} skip={skip_zero} \
                                     entry {i}: {g} vs {e}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(ran.contains(&Some(Width::Plain)), "{ran:?}");
        println!("rank_update_class_major widths run on this host: {ran:?}");
    }
}
