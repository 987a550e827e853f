//! Reusable scratch buffers for quadratic forms.
//!
//! The per-point classification path evaluates Mahalanobis quadratic forms
//! on every mouse event; allocating the centered and transformed
//! intermediates each time would dominate the cost. A [`Workspace`] owns
//! those two buffers and grows them on first use, so every evaluation after
//! warm-up performs zero heap allocations.

use crate::matrix::Matrix;
use crate::vector::dot_slices;

/// Scratch buffers for Mahalanobis / quadratic-form evaluation.
///
/// One workspace serves any dimension: the buffers grow to the largest
/// dimension seen and are reused from then on. Not thread-safe by design —
/// give each worker thread its own workspace.
///
/// # Examples
///
/// ```
/// use grandma_linalg::{Matrix, Workspace};
///
/// let inv = Matrix::identity(2);
/// let mut ws = Workspace::new();
/// let d2 = ws.mahalanobis_squared(&[3.0, 4.0], &[0.0, 0.0], &inv);
/// assert_eq!(d2, 25.0);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Workspace {
    centered: Vec<f64>,
    transformed: Vec<f64>,
}

impl Workspace {
    /// Creates an empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a workspace pre-sized for dimension `dim`, so even the first
    /// evaluation allocates nothing.
    pub fn with_dim(dim: usize) -> Self {
        Self {
            centered: vec![0.0; dim],
            transformed: vec![0.0; dim],
        }
    }

    /// Ensures both buffers hold at least `dim` slots.
    fn reserve(&mut self, dim: usize) {
        if self.centered.len() < dim {
            self.centered.resize(dim, 0.0);
            self.transformed.resize(dim, 0.0);
        }
    }

    /// Computes the squared Mahalanobis distance
    /// `(x − μ)ᵀ Σ⁻¹ (x − μ)` given the *inverse* covariance, without
    /// allocating (after the buffers have grown to `x.len()`).
    ///
    /// Matches [`crate::mahalanobis_squared`] exactly; the free function
    /// remains the convenient one-off form.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions do not agree.
    pub fn mahalanobis_squared(
        &mut self,
        x: &[f64],
        mean: &[f64],
        inverse_covariance: &Matrix,
    ) -> f64 {
        assert_eq!(x.len(), mean.len(), "dimension mismatch in mahalanobis");
        self.reserve(x.len());
        let centered = &mut self.centered[..x.len()];
        for ((c, a), b) in centered.iter_mut().zip(x.iter()).zip(mean.iter()) {
            *c = a - b;
        }
        let transformed = &mut self.transformed[..x.len()];
        inverse_covariance.mul_vec_into(centered, transformed);
        dot_slices(centered, transformed)
    }

    /// Computes the quadratic form `xᵀ M x` without allocating (after
    /// warm-up).
    ///
    /// With `M = Σ⁻¹` this is the shared term of the per-class Mahalanobis
    /// identity `d²_c(x) = xᵀΣ⁻¹x − 2·(Σ⁻¹μ_c)·x + μ_cᵀΣ⁻¹μ_c`: computed
    /// once per point, it turns each per-class distance into one dot
    /// product plus a cached constant.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions do not agree.
    pub fn quadratic_form(&mut self, x: &[f64], matrix: &Matrix) -> f64 {
        self.reserve(x.len());
        let transformed = &mut self.transformed[..x.len()];
        matrix.mul_vec_into(x, transformed);
        dot_slices(x, transformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::mahalanobis_squared;
    use crate::vector::Vector;

    #[test]
    fn matches_allocating_mahalanobis() {
        let inv = Matrix::from_rows(&[&[0.5, 0.1], &[0.1, 2.0]]);
        let x = Vector::from_slice(&[3.0, -1.5]);
        let mu = Vector::from_slice(&[1.0, 0.5]);
        let expect = mahalanobis_squared(&x, &mu, &inv);
        let mut ws = Workspace::new();
        let got = ws.mahalanobis_squared(x.as_slice(), mu.as_slice(), &inv);
        assert_eq!(got, expect);
    }

    #[test]
    fn workspace_is_reusable_across_dimensions() {
        let mut ws = Workspace::new();
        let d2 = ws.mahalanobis_squared(&[1.0], &[0.0], &Matrix::identity(1));
        assert_eq!(d2, 1.0);
        let d3 = ws.mahalanobis_squared(&[1.0, 2.0, 2.0], &[0.0; 3], &Matrix::identity(3));
        assert_eq!(d3, 9.0);
        let d1 = ws.mahalanobis_squared(&[2.0], &[0.0], &Matrix::identity(1));
        assert_eq!(d1, 4.0);
    }

    #[test]
    fn quadratic_form_identity_is_squared_norm() {
        let mut ws = Workspace::with_dim(3);
        let q = ws.quadratic_form(&[1.0, 2.0, 2.0], &Matrix::identity(3));
        assert_eq!(q, 9.0);
    }

    #[test]
    fn quadratic_form_expands_mahalanobis_identity() {
        // d²(x) = x'Mx − 2(Mμ)·x + μ'Mμ for symmetric M.
        let m = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]);
        let x = [1.5, -2.0];
        let mu = [0.5, 1.0];
        let mut ws = Workspace::new();
        let direct = ws.mahalanobis_squared(&x, &mu, &m);
        let w = m.mul_vector(&Vector::from_slice(&mu));
        let via_identity = ws.quadratic_form(&x, &m) - 2.0 * w.dot_slice(&x) + w.dot_slice(&mu);
        assert!((direct - via_identity).abs() < 1e-12);
    }
}
