//! Dense row-major `f64` matrices.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::vector::Vector;

/// A dense, row-major matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use grandma_linalg::{Matrix, Vector};
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let v = Vector::from_slice(&[1.0, 1.0]);
/// assert_eq!(m.mul_vector(&v).as_slice(), &[3.0, 7.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or if `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Returns the number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Returns the number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns the given row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the given row as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Computes `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vector(&self, v: &Vector) -> Vector {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vector");
        let mut out = Vector::zeros(self.rows);
        for r in 0..self.rows {
            let mut acc = 0.0;
            for (c, value) in self.row(r).iter().enumerate() {
                acc += value * v[c];
            }
            out[r] = acc;
        }
        out
    }

    /// Computes `self * v` into a caller-provided buffer, allocating
    /// nothing.
    ///
    /// This is the hot-path variant of [`Matrix::mul_vector`]: the per-point
    /// classification loop reuses one output buffer across calls.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()` or `out.len() != self.rows()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use grandma_linalg::Matrix;
    ///
    /// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
    /// let mut out = [0.0; 2];
    /// m.mul_vec_into(&[1.0, 1.0], &mut out);
    /// assert_eq!(out, [3.0, 7.0]);
    /// ```
    pub fn mul_vec_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec_into");
        assert_eq!(
            out.len(),
            self.rows,
            "output length mismatch in mul_vec_into"
        );
        for (r, slot) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (value, x) in self.row(r).iter().zip(v.iter()) {
                acc += value * x;
            }
            *slot = acc;
        }
    }

    /// Computes the matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn mul_matrix(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch in mul_matrix");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                // lint:allow(float-eq): sparsity skip; exact zero only
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out[(r, c)] += a * other[(k, c)];
                }
            }
        }
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Adds `factor * I` to the matrix in place.
    ///
    /// Used as the ridge fallback when a pooled covariance matrix is
    /// singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_ridge(&mut self, factor: f64) {
        assert!(self.is_square(), "ridge requires a square matrix");
        for i in 0..self.rows {
            self[(i, i)] += factor;
        }
    }

    /// Adds `factor * outer(v, v)` to the matrix in place.
    ///
    /// This is the rank-one update used to accumulate scatter matrices.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions do not match.
    pub fn add_outer(&mut self, factor: f64, v: &Vector) {
        assert_eq!(self.rows, v.len(), "dimension mismatch in add_outer");
        assert_eq!(self.cols, v.len(), "dimension mismatch in add_outer");
        for r in 0..self.rows {
            let vr = v[r] * factor;
            // lint:allow(float-eq): sparsity skip; exact zero only
            if vr == 0.0 {
                continue;
            }
            for c in 0..self.cols {
                self[(r, c)] += vr * v[c];
            }
        }
    }

    /// Adds another matrix in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign_matrix(&mut self, other: &Matrix) {
        assert_eq!(self.rows, other.rows, "shape mismatch");
        assert_eq!(self.cols, other.cols, "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Returns a copy scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * factor).collect(),
        }
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Returns the largest absolute entry, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_vector_is_vector() {
        let m = Matrix::identity(3);
        let v = Vector::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(m.mul_vector(&v).as_slice(), v.as_slice());
    }

    #[test]
    fn mul_matrix_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.mul_matrix(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn transpose_swaps_indices() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t[(2, 0)], 3.0);
        assert_eq!(t[(0, 1)], 4.0);
    }

    #[test]
    fn add_outer_produces_rank_one_update() {
        let mut m = Matrix::zeros(2, 2);
        let v = Vector::from_slice(&[1.0, 2.0]);
        m.add_outer(2.0, &v);
        assert_eq!(m[(0, 0)], 2.0);
        assert_eq!(m[(0, 1)], 4.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m[(1, 1)], 8.0);
    }

    #[test]
    fn add_ridge_bumps_diagonal_only() {
        let mut m = Matrix::zeros(2, 2);
        m.add_ridge(0.5);
        assert_eq!(m[(0, 0)], 0.5);
        assert_eq!(m[(1, 1)], 0.5);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn max_abs_finds_largest_magnitude() {
        let m = Matrix::from_rows(&[&[1.0, -9.0], &[3.0, 4.0]]);
        assert_eq!(m.max_abs(), 9.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mul_vector_panics_on_mismatch() {
        let m = Matrix::zeros(2, 3);
        let v = Vector::zeros(2);
        let _ = m.mul_vector(&v);
    }
}
