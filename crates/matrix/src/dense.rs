//! Row-major dense `f64` matrices.

use crate::error::MatrixError;
use crate::kernel;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major, heap-allocated `f64` matrix.
///
/// This is the workhorse value type of the reproduction: full matrices in
/// examples and tests, and individual *algorithmic blocks* inside
/// [`crate::BlockedMatrix`]. It deliberately stays simple — contiguous
/// storage, no strides — because every distributed algorithm in the paper
/// moves whole blocks.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wrap an existing row-major buffer.
    ///
    /// Returns an error when the buffer length does not match the shape.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, MatrixError> {
        if data.len() != rows * cols {
            return Err(MatrixError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Size of the stored data in bytes — the cost a migrating computation
    /// pays to carry this matrix as an agent variable.
    #[inline]
    pub fn bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f64>()) as u64
    }

    /// Borrow the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The row-major buffer as its little-endian `f64` byte stream: two
    /// matrices give equal streams iff their values are bitwise equal.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.data.len() * 8);
        for v in &self.data {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Mutably borrow the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Set every entry to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Copy the `rows x cols` sub-matrix whose top-left corner is `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if the requested window exceeds the matrix bounds.
    pub fn submatrix(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Matrix {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols, "submatrix out of bounds");
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            let src = &self.data[(r0 + i) * self.cols + c0..(r0 + i) * self.cols + c0 + cols];
            out.row_mut(i).copy_from_slice(src);
        }
        out
    }

    /// Write `block` into this matrix with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    pub fn set_submatrix(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "set_submatrix out of bounds"
        );
        for i in 0..block.rows {
            let dst_start = (r0 + i) * self.cols + c0;
            self.data[dst_start..dst_start + block.cols].copy_from_slice(block.row(i));
        }
    }

    /// The transpose of this matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Plain triple-loop product `self * rhs` in the paper's Figure 2 order
    /// (i, j, k with a scalar accumulator). Used as the correctness oracle.
    pub fn multiply_naive(&self, rhs: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != rhs.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "multiply_naive",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut c = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for j in 0..rhs.cols {
                let mut t = 0.0;
                for k in 0..self.cols {
                    t += self[(i, k)] * rhs[(k, j)];
                }
                c[(i, j)] = t;
            }
        }
        Ok(c)
    }

    /// Cache-friendly product `self * rhs` using the i-k-j kernel.
    ///
    /// This is the summation order every distributed implementation in this
    /// repository uses inside a block, so block algorithms reproduce its
    /// results bit-for-bit when their block order equals the matrix order.
    pub fn multiply(&self, rhs: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != rhs.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "multiply",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut c = Matrix::zeros(self.rows, rhs.cols);
        kernel::gemm_acc(
            &mut c.data,
            &self.data,
            &rhs.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
        Ok(c)
    }

    /// `self += rhs` element-wise.
    pub fn add_assign(&mut self, rhs: &Matrix) -> Result<(), MatrixError> {
        if self.shape() != rhs.shape() {
            return Err(MatrixError::ShapeMismatch {
                op: "add_assign",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
        Ok(())
    }

    /// Largest absolute element-wise difference `max |self - rhs|`.
    ///
    /// Returns `f64::INFINITY` when the shapes differ, which makes it safe
    /// to use directly in assertions.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f64 {
        if self.shape() != rhs.shape() {
            return f64::INFINITY;
        }
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            if self.cols > show_cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_identity_from_fn() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let id = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(id[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }

        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = Matrix::from_fn(4, 4, |i, j| (i + 2 * j) as f64);
        let id = Matrix::identity(4);
        assert_eq!(a.multiply(&id).unwrap(), a);
        assert_eq!(id.multiply(&a).unwrap(), a);
    }

    #[test]
    fn naive_and_kernel_products_agree() {
        let a = Matrix::from_fn(5, 7, |i, j| (i as f64) - 0.5 * j as f64);
        let b = Matrix::from_fn(7, 3, |i, j| 1.0 / (1.0 + i as f64 + j as f64));
        let c1 = a.multiply_naive(&b).unwrap();
        let c2 = a.multiply(&b).unwrap();
        assert!(c1.max_abs_diff(&c2) < 1e-12);
    }

    #[test]
    fn multiply_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.multiply(&b),
            Err(MatrixError::ShapeMismatch { .. })
        ));
        assert!(a.multiply_naive(&b).is_err());
    }

    #[test]
    fn submatrix_roundtrip() {
        let a = Matrix::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let blk = a.submatrix(2, 3, 2, 2);
        assert_eq!(blk[(0, 0)], 15.0);
        assert_eq!(blk[(1, 1)], 22.0);

        let mut b = Matrix::zeros(6, 6);
        b.set_submatrix(2, 3, &blk);
        assert_eq!(b[(2, 3)], 15.0);
        assert_eq!(b[(3, 4)], 22.0);
        assert_eq!(b[(0, 0)], 0.0);
    }

    #[test]
    fn transpose_involutive() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 31 + j * 7) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(4, 2)], a[(2, 4)]);
    }

    #[test]
    fn add_assign_and_diff() {
        let mut a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::identity(2);
        a.add_assign(&b).unwrap();
        assert_eq!(a[(0, 0)], 1.0);
        assert_eq!(a[(1, 1)], 3.0);
        assert_eq!(a.max_abs_diff(&a), 0.0);
        assert_eq!(a.max_abs_diff(&Matrix::zeros(3, 3)), f64::INFINITY);
    }

    #[test]
    fn frobenius_norm() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        assert!((a.frobenius() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn bytes_reflects_payload() {
        assert_eq!(Matrix::zeros(4, 8).bytes(), 4 * 8 * 8);
    }
}
