//! Dense row-major `f32` matrices sized for small-model training.
//!
//! One multiply per transpose case. The forward product `A·W`
//! ([`Matrix::matmul`]) is the shared register-tiled kernel
//! [`crate::gemm::gemm`] — the same code the frozen serving path runs, so
//! training and serving agree bit for bit by construction. The two backward
//! products (`AᵀB` for weight gradients, `A·Wᵀ` for input gradients) are
//! plain cache-friendly loops. Weights are borrowed slices, so layers never
//! clone a parameter buffer into a temporary matrix. All shapes are checked
//! at runtime with panics, matching the internal-invariant style of the
//! layer code that owns every call site.

use crate::activation::Activation;
use crate::gemm::gemm;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
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

    /// Immutable view of the backing row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self * w` — `[m x k] * [k x n] -> [m x n]`, where `w` is a borrowed
    /// row-major `[k x n]` buffer (a weight or another matrix's data).
    ///
    /// # Panics
    /// If `w.len() != self.cols * n`.
    pub fn matmul(&self, w: &[f32], n: usize) -> Matrix {
        assert_eq!(w.len(), self.cols * n, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, n);
        gemm(&self.data, w, n, None, Activation::Identity, &mut out.data);
        out
    }

    /// `selfᵀ * other` — `[k x m]ᵀ * [k x n] -> [m x n]`.
    ///
    /// Used for weight gradients (`Xᵀ·dZ`) without materializing a transpose.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for kk in 0..k {
            let a_row = &self.data[kk * m..(kk + 1) * m];
            let b_row = &other.data[kk * n..(kk + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self * wᵀ` — `[m x k] * [n x k]ᵀ -> [m x n]`, where `w` is a borrowed
    /// row-major `[n x k]` buffer.
    ///
    /// Used for input gradients (`dZ·Wᵀ`) without materializing a transpose.
    ///
    /// # Panics
    /// If `w.len() != n * self.cols`.
    pub fn matmul_nt(&self, w: &[f32], n: usize) -> Matrix {
        assert_eq!(w.len(), n * self.cols, "matmul_nt shape mismatch");
        let (m, k) = (self.rows, self.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &w[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
        out
    }

    /// Adds `vec` (length `cols`) to every row in place.
    pub fn add_row_vector(&mut self, vec: &[f32]) {
        assert_eq!(vec.len(), self.cols, "row vector length mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &v) in row.iter_mut().zip(vec.iter()) {
                *o += v;
            }
        }
    }

    /// Column sums — returns a vector of length `cols`.
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &v) in out.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
        out
    }

    /// Element-wise product in place.
    pub fn hadamard_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a *= b;
        }
    }

    /// Horizontally concatenates matrices with equal row counts.
    pub fn hconcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hconcat of zero matrices");
        let rows = parts[0].rows;
        assert!(parts.iter().all(|p| p.rows == rows), "hconcat row mismatch");
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                out.data[r * cols + offset..r * cols + offset + p.cols]
                    .copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Splits a matrix into column blocks of the given widths (inverse of
    /// [`Matrix::hconcat`]).
    pub fn hsplit(&self, widths: &[usize]) -> Vec<Matrix> {
        assert_eq!(widths.iter().sum::<usize>(), self.cols, "hsplit width mismatch");
        let mut out = Vec::with_capacity(widths.len());
        let mut offset = 0;
        for &w in widths {
            let mut part = Matrix::zeros(self.rows, w);
            for r in 0..self.rows {
                part.row_mut(r)
                    .copy_from_slice(&self.row(r)[offset..offset + w]);
            }
            out.push(part);
            offset += w;
        }
        out
    }

    /// Consumes the matrix, returning its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(b.data(), 2);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let id = m(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(id.data(), 2), a);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[1.0, 0.5, -1.0, 2.0, 0.0, 3.0]);
        let got = a.matmul_tn(&b);
        // aᵀ is 2x3
        let at = m(2, 3, &[1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
        assert_eq!(got, at.matmul(b.data(), 2));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(4, 3, &[1.0, 0.0, 2.0, 0.5, 1.5, -1.0, 2.0, 2.0, 2.0, -3.0, 1.0, 0.0]);
        let got = a.matmul_nt(b.data(), 4);
        let bt = m(3, 4, &[1.0, 0.5, 2.0, -3.0, 0.0, 1.5, 2.0, 1.0, 2.0, -1.0, 2.0, 0.0]);
        assert_eq!(got, a.matmul(bt.data(), 4));
    }

    #[test]
    fn add_row_vector_and_col_sums() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_vector(&[1.0, 2.0]);
        assert_eq!(a.col_sums(), vec![3.0, 6.0]);
    }

    #[test]
    fn hconcat_hsplit_roundtrip() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 1, &[5.0, 6.0]);
        let cat = Matrix::hconcat(&[&a, &b]);
        assert_eq!(cat.row(0), &[1.0, 2.0, 5.0]);
        assert_eq!(cat.row(1), &[3.0, 4.0, 6.0]);
        let parts = cat.hsplit(&[2, 1]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn hadamard() {
        let mut a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[2.0, 0.5, -1.0]);
        a.hadamard_assign(&b);
        assert_eq!(a.data(), &[2.0, 1.0, -3.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(b.data(), 3);
    }
}
