//! Dense row-major `f64` matrix with exactly the operations the layers need.

use rand::{Rng, RngExt};

/// Column block width of [`Matrix::add_row_product`]: the partial sums of
/// one block stay in registers across the whole `k` loop.
const ROW_BLOCK: usize = 8;

/// Longest row `a` whose nonzero entries [`Matrix::add_row_product`] lists
/// on the stack; longer rows test each entry in the blocked loop.
const NONZERO_CAP: usize = 64;

/// Dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix from a row-major vector. Panics when sizes disagree.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialisation: `U(-s, s)` with
    /// `s = sqrt(6 / (rows + cols))`.
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let s = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| (rng.random::<f64>() * 2.0 - 1.0) * s)
            .collect();
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

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for 0x0 / empty matrices.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to element `(r, c)`.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] += v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major buffer.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw buffer.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Sets every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// `self @ other` — standard matmul.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            other.add_row_product(
                self.row(i),
                &mut out.data[i * other.cols..(i + 1) * other.cols],
            );
        }
        out
    }

    /// `acc += a @ self` for one row vector `a` — the row kernel of
    /// [`matmul`](Self::matmul), and of every slice-based caller that must
    /// reproduce it bit for bit. Per column `j` it sums `a[k] * self[k][j]`
    /// from `+0.0`, `k` ascending, zero entries of `a` skipped, and adds
    /// the sum into `acc[j]` once — what `matmul` followed by `add_assign`
    /// computes.
    ///
    /// The nonzero `k` are listed first (branch-free); then columns go in
    /// blocks of eight, each block's sums held in registers while `k` runs
    /// over the list. On an `acc` of `+0.0` this is also the textbook loop
    /// `acc[j] += a[k] * self[k][j]` to the bit: both sum the same products
    /// in the same order from `+0.0`, and an IEEE sum that starts at `+0.0`
    /// is never `-0.0`, so the final add into `+0.0` changes nothing.
    #[inline]
    pub fn add_row_product(&self, a: &[f64], acc: &mut [f64]) {
        assert_eq!(a.len(), self.rows, "matmul shape mismatch");
        assert_eq!(acc.len(), self.cols, "matmul shape mismatch");
        if a.len() > NONZERO_CAP {
            return self.add_blocks(a, acc, (0..a.len()).filter(|&k| a[k] != 0.0));
        }
        let mut ks = [0u8; NONZERO_CAP];
        let mut n = 0;
        for (k, &v) in a.iter().enumerate() {
            ks[n] = k as u8;
            n += usize::from(v != 0.0);
        }
        self.add_blocks(a, acc, ks[..n].iter().map(|&k| usize::from(k)));
    }

    /// The blocked loop of [`add_row_product`](Self::add_row_product) over
    /// the nonzero indices `ks`, ascending.
    #[inline]
    fn add_blocks(&self, a: &[f64], acc: &mut [f64], ks: impl Iterator<Item = usize> + Clone) {
        let cols = self.cols;
        let mut blocks = acc.chunks_exact_mut(ROW_BLOCK);
        for (b, out) in (&mut blocks).enumerate() {
            let j0 = b * ROW_BLOCK;
            let mut sum = [0.0f64; ROW_BLOCK];
            for k in ks.clone() {
                let w = &self.data[k * cols + j0..k * cols + j0 + ROW_BLOCK];
                for (s, &w) in sum.iter_mut().zip(w) {
                    *s += a[k] * w;
                }
            }
            for (o, s) in out.iter_mut().zip(sum) {
                *o += s;
            }
        }
        let rest = blocks.into_remainder();
        if !rest.is_empty() {
            let j0 = cols - rest.len();
            let mut sum = [0.0f64; ROW_BLOCK];
            for k in ks {
                let w = &self.data[k * cols + j0..(k + 1) * cols];
                for (s, &w) in sum.iter_mut().zip(w) {
                    *s += a[k] * w;
                }
            }
            for (o, s) in rest.iter_mut().zip(sum) {
                *o += s;
            }
        }
    }

    /// `selfᵀ @ other` without materialising the transpose.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = other.row(r);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self @ otherᵀ` without materialising the transpose.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let dot: f64 = a_row.iter().zip(b_row).map(|(a, b)| a * b).sum();
                out.data[i * other.rows + j] = dot;
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `self += other` (elementwise). Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_assign shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += k * other`.
    pub fn add_scaled(&mut self, other: &Matrix, k: f64) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += k * b;
        }
    }

    /// Multiplies every element by `k`.
    pub fn scale(&mut self, k: f64) {
        self.data.iter_mut().for_each(|v| *v *= k);
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Applies `f` elementwise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.data.iter().map(|&v| f(v)).collect())
    }

    /// Adds a 1-row bias to every row.
    pub fn add_row_broadcast(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1);
        assert_eq!(bias.cols, self.cols);
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, b) in row.iter_mut().zip(&bias.data) {
                *v += b;
            }
        }
    }

    /// Sums rows into a 1-row matrix (bias gradient).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Frobenius inner product `<self, other>`.
    pub fn frobenius_dot(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Extracts rows `[start, end)` as a new matrix.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows);
        Matrix::from_vec(
            end - start,
            self.cols,
            self.data[start * self.cols..end * self.cols].to_vec(),
        )
    }

    /// Horizontally concatenates `a | b` (same row count).
    pub fn hcat(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows, b.rows, "hcat row mismatch");
        let mut out = Matrix::zeros(a.rows, a.cols + b.cols);
        for r in 0..a.rows {
            out.data[r * (a.cols + b.cols)..r * (a.cols + b.cols) + a.cols]
                .copy_from_slice(a.row(r));
            out.data[r * (a.cols + b.cols) + a.cols..(r + 1) * (a.cols + b.cols)]
                .copy_from_slice(b.row(r));
        }
        out
    }

    /// Splits columns at `at`, returning `(left, right)`.
    pub fn hsplit(&self, at: usize) -> (Matrix, Matrix) {
        assert!(at <= self.cols);
        let mut left = Matrix::zeros(self.rows, at);
        let mut right = Matrix::zeros(self.rows, self.cols - at);
        for r in 0..self.rows {
            left.row_mut(r).copy_from_slice(&self.row(r)[..at]);
            right.row_mut(r).copy_from_slice(&self.row(r)[at..]);
        }
        (left, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn m(rows: usize, cols: usize, v: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_known_values() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c, m(2, 2, &[58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::xavier(4, 3, &mut rng);
        let b = Matrix::xavier(4, 5, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::xavier(4, 3, &mut rng);
        let b = Matrix::xavier(5, 3, &mut rng);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::xavier(3, 7, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn broadcast_and_sum_rows_are_adjoint() {
        // sum_rows is the gradient of add_row_broadcast: check shapes/values.
        let mut x = Matrix::zeros(3, 2);
        let bias = m(1, 2, &[1.0, -2.0]);
        x.add_row_broadcast(&bias);
        assert_eq!(x.row(2), &[1.0, -2.0]);
        let g = x.sum_rows();
        assert_eq!(g, m(1, 2, &[3.0, -6.0]));
    }

    #[test]
    fn hcat_hsplit_round_trip() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Matrix::xavier(3, 2, &mut rng);
        let b = Matrix::xavier(3, 4, &mut rng);
        let c = Matrix::hcat(&a, &b);
        let (l, r) = c.hsplit(2);
        assert_eq!(l, a);
        assert_eq!(r, b);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Matrix::xavier(10, 10, &mut rng);
        let s = (6.0 / 20.0f64).sqrt();
        assert!(a.data().iter().all(|v| v.abs() <= s));
        // Not all zero.
        assert!(a.data().iter().any(|v| v.abs() > 1e-6));
    }

    #[test]
    fn slice_rows_extracts_contiguous() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.slice_rows(1, 3), m(2, 2, &[3.0, 4.0, 5.0, 6.0]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn hadamard_and_scale() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[2.0, 0.5, -1.0]);
        assert_eq!(a.hadamard(&b), m(1, 3, &[2.0, 1.0, -3.0]));
        let mut c = a.clone();
        c.scale(2.0);
        assert_eq!(c, m(1, 3, &[2.0, 4.0, 6.0]));
    }
}
