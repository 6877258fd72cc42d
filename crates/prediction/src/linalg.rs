//! Small dense linear-algebra helpers used by the regression-style
//! predictors (LR, ARIMA, parts of HP-MSI).
//!
//! Only the operations actually needed are provided: dense matrices,
//! matrix–vector/matrix–matrix products, Gaussian elimination with partial
//! pivoting, and ridge regression via the normal equations. Implemented here
//! rather than pulling in an external linear-algebra crate, because the
//! workspace builds offline from in-repo code only.

use std::fmt;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Create a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a matrix from row-major data.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Self { rows: r, cols: c, data: rows.into_iter().flatten().collect() }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element mutation.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix–matrix product `self * other`.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out.data[r * other.cols + c] += a * other.get(k, c);
                }
            }
        }
        out
    }

    /// Matrix–vector product.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "dimension mismatch");
        (0..self.rows).map(|r| (0..self.cols).map(|c| self.get(r, c) * v[c]).sum()).collect()
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:8.3} ", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Solve the linear system `A x = b` by Gaussian elimination with partial
/// pivoting. Returns `None` when the matrix is (numerically) singular.
pub fn solve(a: &DenseMatrix, b: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(a.rows(), a.cols(), "system matrix must be square");
    assert_eq!(a.rows(), b.len(), "rhs dimension mismatch");
    let n = a.rows();
    // Build the augmented matrix.
    let mut aug = vec![vec![0.0f64; n + 1]; n];
    for (r, row) in aug.iter_mut().enumerate() {
        for (c, cell) in row.iter_mut().take(n).enumerate() {
            *cell = a.get(r, c);
        }
        row[n] = b[r];
    }
    for col in 0..n {
        // Partial pivoting.
        let pivot_row =
            (col..n).max_by(|&i, &j| aug[i][col].abs().total_cmp(&aug[j][col].abs()))?;
        if aug[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        aug.swap(col, pivot_row);
        // Eliminate below.
        for row in (col + 1)..n {
            let factor = aug[row][col] / aug[col][col];
            if factor == 0.0 {
                continue;
            }
            #[allow(clippy::needless_range_loop, reason = "two rows of `aug` are borrowed")]
            for k in col..=n {
                aug[row][k] -= factor * aug[col][k];
            }
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut sum = aug[row][n];
        for col in (row + 1)..n {
            sum -= aug[row][col] * x[col];
        }
        x[row] = sum / aug[row][row];
    }
    Some(x)
}

/// Ridge regression: find `w` minimising `||X w - y||² + lambda ||w||²` via
/// the normal equations `(XᵀX + λI) w = Xᵀ y`.
///
/// `x` has one row per sample; `y` has one entry per sample. Returns the
/// weight vector (length `x.cols()`), or `None` on a singular system (which
/// cannot happen for `lambda > 0`).
pub fn ridge_regression(x: &DenseMatrix, y: &[f64], lambda: f64) -> Option<Vec<f64>> {
    assert_eq!(x.rows(), y.len(), "sample count mismatch");
    let xt = x.transpose();
    let mut xtx = xt.matmul(x);
    for i in 0..xtx.rows() {
        let v = xtx.get(i, i) + lambda;
        xtx.set(i, i, v);
    }
    let xty = xt.matvec(y);
    solve(&xtx, &xty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_simple_system() {
        // x + y = 3, x - y = 1 => x = 2, y = 1.
        let a = DenseMatrix::from_rows(vec![vec![1.0, 1.0], vec![1.0, -1.0]]);
        let x = solve(&a, &[3.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = DenseMatrix::from_rows(vec![vec![0.0, 2.0], vec![3.0, 1.0]]);
        let x = solve(&a, &[4.0, 5.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn singular_system_returns_none() {
        let a = DenseMatrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(solve(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn matrix_products() {
        let a = DenseMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = DenseMatrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.get(0, 0), 2.0);
        assert_eq!(c.get(0, 1), 1.0);
        assert_eq!(c.get(1, 0), 4.0);
        assert_eq!(c.get(1, 1), 3.0);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
        let i = DenseMatrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(a.transpose().get(0, 1), 3.0);
    }

    #[test]
    fn ridge_recovers_exact_weights_on_noiseless_data() {
        // y = 2*x1 - 1*x2, no noise, tiny lambda.
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            let x1 = i as f64;
            let x2 = (i * i % 7) as f64;
            rows.push(vec![x1, x2]);
            ys.push(2.0 * x1 - x2);
        }
        let x = DenseMatrix::from_rows(rows);
        let w = ridge_regression(&x, &ys, 1e-9).unwrap();
        assert!((w[0] - 2.0).abs() < 1e-5);
        assert!((w[1] + 1.0).abs() < 1e-5);
    }

    #[test]
    fn ridge_shrinks_weights_with_large_lambda() {
        let x = DenseMatrix::from_rows(vec![vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![1.0, 2.0, 3.0];
        let w_small = ridge_regression(&x, &y, 1e-9).unwrap()[0];
        let w_large = ridge_regression(&x, &y, 100.0).unwrap()[0];
        assert!(w_small > w_large);
        assert!(w_large > 0.0);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_rows_rejected() {
        DenseMatrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]);
    }
}
