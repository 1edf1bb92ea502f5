//! # hfl-tensor
//!
//! Flat-slice `f32` kernels used throughout the ABD-HFL reproduction.
//!
//! Everything in the federated-learning stack reduces to operations on flat
//! `f32` parameter vectors: SGD steps are `axpy`, robust aggregation rules
//! need pairwise squared distances and coordinate-wise order statistics,
//! and the dense layers run a block of inputs through a weight panel.
//!
//! | module | contents |
//! |---|---|
//! | [`ops`] | vector kernels, the dense layer's `Panel` / `forward_block` / `rank_update`, the training step's class-major `forward_class_major` / `rank_update_class_major` (lanes = inputs), the `f32` approximation `forward_approx` a ballot is decided from, the pairwise-distance fill `pairwise_dist_sq` over the block kernel `dist_sq_pairs` (a repeated row measured once, `RowGroups`), the ref-vector recycler `RefPool`, and the `Width` dispatch that runs them at the CPU's vector width |
//! | [`stats`] | coordinate-wise median / trimmed mean on column tiles, scalar order statistics, the coordinate-wise variance `column_var_into` |
//! | [`init`] | seeded parameter initializers, Box–Muller over raw words (scalar and lane-wise `gaussians_from_words`) |
//! | [`math`] | `exp`, `ln` and the Box–Muller angle `cos 2πu` / `sin 2πu` in plain `+ − × ÷` (no libm, no FMA), `f32` and scalar `f64`, and the lane-wise `exp_in_place` |
//!
//! The crate deliberately has no opinion about parallelism — callers that
//! want to parallelize (e.g. Krum's O(n²) distance matrix) split the work
//! with `hfl-parallel` and call these kernels per chunk.

pub mod init;
pub mod math;
pub mod ops;
pub mod stats;

/// Asserts two slices have equal length, with a helpful message.
///
/// Used by every binary kernel; keeping the check in one place makes the
/// hot loops themselves check-free after the compiler sees equal lengths.
#[inline]
#[track_caller]
pub fn check_same_len(a: &[f32], b: &[f32]) {
    assert_eq!(
        a.len(),
        b.len(),
        "tensor kernel length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
}
