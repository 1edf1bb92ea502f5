//! Row-major dense matrix, sized for the small models and per-cluster
//! update stacks used in the reproduction.


use crate::ops;

/// A row-major dense `f32` matrix.
///
/// Rows are contiguous, which makes `matvec` a sequence of dot products
/// over cache-resident rows, and lets callers hand out disjoint row chunks
/// to worker threads with `chunks_mut`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape/buffer mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterator over rows.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// `out = self * x` (matrix–vector product).
    ///
    /// # Panics
    /// If `x.len() != cols` or `out.len() != rows`.
    pub fn matvec(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec: x length != cols");
        assert_eq!(out.len(), self.rows, "matvec: out length != rows");
        for (o, row) in out.iter_mut().zip(self.rows_iter()) {
            *o = ops::dot(row, x) as f32;
        }
    }

    /// `out = selfᵀ * x` (transposed matrix–vector product) — the backward
    /// pass of a dense layer.
    ///
    /// # Panics
    /// If `x.len() != rows` or `out.len() != cols`.
    pub fn matvec_t(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "matvec_t: x length != rows");
        assert_eq!(out.len(), self.cols, "matvec_t: out length != cols");
        ops::zero(out);
        for (xi, row) in x.iter().zip(self.rows_iter()) {
            ops::axpy(*xi, row, out);
        }
    }

    /// Rank-1 update `self += alpha * a ⊗ b` (outer product accumulate) —
    /// the gradient accumulation of a dense layer (`a` = output-side error,
    /// `b` = input activation).
    pub fn add_outer(&mut self, alpha: f32, a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), self.rows, "add_outer: a length != rows");
        assert_eq!(b.len(), self.cols, "add_outer: b length != cols");
        let cols = self.cols;
        for (i, ai) in a.iter().enumerate() {
            let coeff = alpha * *ai;
            if coeff == 0.0 {
                continue;
            }
            let row = &mut self.data[i * cols..(i + 1) * cols];
            ops::axpy(coeff, b, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m2x3() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn shape_and_rows() {
        let m = m2x3();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = m2x3();
        let x = [1.0, 0.0, -1.0];
        let mut out = [0.0; 2];
        m.matvec(&x, &mut out);
        assert_eq!(out, [-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_is_transpose() {
        let m = m2x3();
        let x = [1.0, 1.0];
        let mut out = [0.0; 3];
        m.matvec_t(&x, &mut out);
        assert_eq!(out, [5.0, 7.0, 9.0]);
    }

    #[test]
    fn add_outer_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(1.0, &[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(m.as_slice(), &[3.0, 4.0, 6.0, 8.0]);
        m.add_outer(-1.0, &[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(m.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn transpose_consistency_dot_identity() {
        // <Ax, y> == <x, Aᵀy> for random-ish values.
        let m = m2x3();
        let x = [0.5, -1.5, 2.0];
        let y = [1.0, -2.0];
        let mut ax = [0.0; 2];
        m.matvec(&x, &mut ax);
        let mut aty = [0.0; 3];
        m.matvec_t(&y, &mut aty);
        let lhs = ops::dot(&ax, &y);
        let rhs = ops::dot(&x, &aty);
        assert!((lhs - rhs).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "shape/buffer mismatch")]
    fn bad_shape_panics() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }
}
