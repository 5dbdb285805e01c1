use crate::kernels::{dot_kernel, dot_kernel_strided};
use crate::{solve_lower, LinalgError, Matrix};

/// Base jitter added to the diagonal when a factorization first fails.
const BASE_JITTER: f64 = 1e-10;
/// Number of ×10 jitter escalations attempted before giving up.
const MAX_JITTER_STEPS: u32 = 8;

/// A Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
/// matrix, with automatic jitter escalation.
///
/// Gaussian-process Gram matrices are positive definite in exact arithmetic
/// but frequently lose that property to rounding when points are close
/// together (which happens constantly in DVFS grids where neighbouring
/// frequency steps are a few percent apart). Following standard GP practice,
/// [`Cholesky::factor`] retries with a growing diagonal jitter
/// (`1e-10 … 1e-2 × mean diagonal`) before reporting failure; the applied
/// jitter is recorded in [`Cholesky::jitter`].
///
/// # Examples
///
/// ```
/// use bofl_linalg::{Matrix, Cholesky};
///
/// # fn main() -> Result<(), bofl_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0],
///                             &[15.0, 18.0,  0.0],
///                             &[-5.0,  0.0, 11.0]])?;
/// let chol = Cholesky::factor(&a)?;
/// assert!((chol.log_det() - a_log_det()).abs() < 1e-9);
/// # fn a_log_det() -> f64 { (2025.0f64).ln() } // det(A) = det(L)² = 45²
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    jitter: f64,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; the strict upper triangle is
    /// assumed to mirror it.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular input,
    /// [`LinalgError::NonFinite`] if `a` contains NaN or infinities, and
    /// [`LinalgError::NotPositiveDefinite`] if factorization fails even at
    /// the maximum jitter.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                dims: (a.rows(), a.cols()),
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite { what: "matrix" });
        }
        let n = a.rows();
        let mean_diag = if n == 0 {
            1.0
        } else {
            (0..n).map(|i| a[(i, i)].abs()).sum::<f64>() / n as f64
        };
        let scale = if mean_diag > 0.0 { mean_diag } else { 1.0 };

        let mut jitter = 0.0;
        let mut last_err = LinalgError::NotPositiveDefinite { pivot: 0, jitter };
        for step in 0..=MAX_JITTER_STEPS {
            match Self::try_factor(a, jitter) {
                Ok(l) => return Ok(Cholesky { l, jitter }),
                Err(e) => last_err = e,
            }
            jitter = BASE_JITTER * scale * 10f64.powi(step as i32);
        }
        Err(last_err)
    }

    fn try_factor(a: &Matrix, jitter: f64) -> Result<Matrix, LinalgError> {
        let n = a.rows();
        let a = a.as_slice();
        // Row-major `L`, built in a flat buffer so each prefix below is a
        // plain subslice.
        let mut l = vec![0.0; n * n];
        // Column by column: the diagonal `j` first, then every entry
        // below it,
        //   l[i][j] = (a[i][j] (+ jitter on the diagonal) − ⟨L[i][..j], L[j][..j]⟩) / l[j][j]
        // with the prefix product computed as ONE fixed-order dot. The
        // entries of one column do not depend on each other, so their dots
        // and divides overlap instead of forming one chain; each reads
        // only earlier columns, so the bits (and the first failing pivot)
        // are those of a row-by-row walk.
        for j in 0..n {
            let lj = &l[j * n..j * n + j];
            let sum = a[j * n + j] + jitter - dot_kernel(lj, lj);
            if sum <= 0.0 || !sum.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j, jitter });
            }
            let pivot = sum.sqrt();
            l[j * n + j] = pivot;
            for i in j + 1..n {
                let prefix = dot_kernel(&l[i * n..i * n + j], &l[j * n..j * n + j]);
                l[i * n + j] = (a[i * n + j] - prefix) / pivot;
            }
        }
        Ok(Matrix::from_row_major(n, n, l))
    }

    /// Extends the factorization by one bordered row: given the factor of
    /// an `n×n` matrix `A`, returns the factor of
    ///
    /// ```text
    /// [ A    row ]
    /// [ rowᵀ diag]
    /// ```
    ///
    /// in `O(n²)` (one forward substitution plus a scalar) instead of the
    /// `O(n³)` of refactoring from scratch. The new bottom row of `L` is
    /// `[yᵀ, √(diag − ‖y‖²)]` with `L y = row`.
    ///
    /// The stored factor is of `A + jitter·I`, so the appended diagonal
    /// entry receives the same jitter to stay consistent with a
    /// from-scratch [`Cholesky::factor`] of the jittered bordered matrix.
    /// If the Schur complement `diag − ‖y‖²` still comes out non-positive,
    /// an escalating *local* jitter is added to the appended entry only
    /// (the existing factor is immutable here); [`Cholesky::jitter`]
    /// continues to report the matrix-wide jitter.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `row.len() != self.dim()`,
    /// [`LinalgError::NonFinite`] for NaN/infinite input, and
    /// [`LinalgError::NotPositiveDefinite`] if the bordered matrix is not
    /// positive definite even at the maximum local jitter.
    ///
    /// # Examples
    ///
    /// ```
    /// use bofl_linalg::{Matrix, Cholesky};
    ///
    /// # fn main() -> Result<(), bofl_linalg::LinalgError> {
    /// let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
    /// let chol = Cholesky::factor(&a)?.extend(&[0.5, 0.25], 2.0)?;
    /// let full = Matrix::from_rows(&[&[4.0, 1.0, 0.5],
    ///                                &[1.0, 3.0, 0.25],
    ///                                &[0.5, 0.25, 2.0]])?;
    /// let direct = Cholesky::factor(&full)?;
    /// assert!((chol.log_det() - direct.log_det()).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn extend(&self, row: &[f64], diag: f64) -> Result<Cholesky, LinalgError> {
        let n = self.dim();
        if row.len() != n {
            return Err(LinalgError::DimensionMismatch {
                left: (n, n),
                right: (row.len(), 1),
                op: "cholesky extend",
            });
        }
        if row.iter().any(|v| !v.is_finite()) || !diag.is_finite() {
            return Err(LinalgError::NonFinite { what: "border" });
        }
        let y = solve_lower(&self.l, row)?;
        let norm2: f64 = y.iter().map(|v| v * v).sum();
        let base = diag + self.jitter - norm2;
        let scale = if diag.abs() > 0.0 { diag.abs() } else { 1.0 };
        let mut d2 = base;
        let mut local_jitter = 0.0;
        let mut step = 0u32;
        while !(d2 > 0.0 && d2.is_finite()) {
            if step > MAX_JITTER_STEPS {
                return Err(LinalgError::NotPositiveDefinite {
                    pivot: n,
                    jitter: local_jitter,
                });
            }
            local_jitter = BASE_JITTER * scale * 10f64.powi(step as i32);
            d2 = base + local_jitter;
            step += 1;
        }

        let mut l = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            for j in 0..=i {
                l[(i, j)] = self.l[(i, j)];
            }
        }
        for (j, yj) in y.iter().enumerate() {
            l[(n, j)] = *yj;
        }
        l[(n, n)] = d2.sqrt();
        Ok(Cholesky {
            l,
            jitter: self.jitter,
        })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// The diagonal jitter that was added to make the factorization succeed
    /// (zero when none was needed).
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Dimension of the factored matrix.
    pub(crate) fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` using the factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = solve_lower(&self.l, b)?;
        // Back-substitution against `Lᵀ`: row `i` of `Lᵀ` past the
        // diagonal is column `i` of `L` below it, read in place with the
        // dot kernel's association. The forward pass has already rejected
        // any non-normal diagonal.
        let n = self.dim();
        let l = self.l.as_slice();
        for i in (0..n).rev() {
            let suffix = dot_kernel_strided(l, (i + 1) * n + i, n, &x[i + 1..]);
            x[i] = (x[i] - suffix) / l[i * n + i];
        }
        Ok(x)
    }

    /// Solves `L y = b` (half-solve), useful for computing quadratic forms
    /// `bᵀ A⁻¹ b = ‖y‖²` without the second substitution.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve_half(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        solve_lower(&self.l, b)
    }

    /// [`Cholesky::solve_half`] into a caller-provided buffer, resumed at
    /// row `from` with `out[..from]` read as the already-solved prefix.
    ///
    /// Row `i` of the half-solve reads only `L[i][..=i]`, `b[i]` and
    /// `out[..i]`, and [`Cholesky::extend`] copies the existing rows of
    /// `L` unchanged. So when `out[..from]` holds the half-solve of
    /// `b[..from]` against the leading `from×from` block of this factor —
    /// e.g. the solve computed before `extend` appended rows — the result
    /// is bitwise identical to a full half-solve at `O(n·(n−from))`
    /// instead of `O(n²)`. `from = 0` is the full solve, bitwise equal to
    /// [`Cholesky::solve_half`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len()` or
    /// `out.len()` differs from `self.dim()` or `from > self.dim()`, and
    /// [`LinalgError::SingularTriangular`] on a (near-)zero diagonal.
    pub fn solve_half_from(
        &self,
        b: &[f64],
        out: &mut [f64],
        from: usize,
    ) -> Result<(), LinalgError> {
        let n = self.dim();
        if b.len() != n || out.len() != n || from > n {
            return Err(LinalgError::DimensionMismatch {
                left: (n, n),
                right: (b.len().max(out.len()).max(from), 1),
                op: "solve_half_from",
            });
        }
        for i in from..n {
            let prefix = dot_kernel(&self.l.row(i)[..i], &out[..i]);
            let d = self.l[(i, i)];
            if !d.is_normal() {
                return Err(LinalgError::SingularTriangular { index: i });
            }
            out[i] = (b[i] - prefix) / d;
        }
        Ok(())
    }

    /// `log det A = 2 Σ log L[i,i]`.
    pub fn log_det(&self) -> f64 {
        (0..self.l.rows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Reconstructs `A = L Lᵀ` (for testing and diagnostics), one
    /// fixed-order dot of two rows of `L` per entry.
    pub fn reconstruct(&self) -> Matrix {
        let n = self.dim();
        Matrix::from_fn(n, n, |i, j| dot_kernel(self.l.row(i), self.l.row(j)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]]).unwrap()
    }

    #[test]
    fn factor_known_matrix() {
        let chol = Cholesky::factor(&spd3()).unwrap();
        let l = chol.l();
        assert!((l[(0, 0)] - 5.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 3.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 3.0).abs() < 1e-12);
        assert!((l[(2, 0)] + 1.0).abs() < 1e-12);
        assert!((l[(2, 1)] - 1.0).abs() < 1e-12);
        assert!((l[(2, 2)] - 3.0).abs() < 1e-12);
        assert_eq!(chol.jitter(), 0.0);
    }

    #[test]
    fn solve_roundtrip() {
        let a = spd3();
        let chol = Cholesky::factor(&a).unwrap();
        let x_true = [1.0, -2.0, 3.0];
        let b: Vec<f64> = (0..3).map(|i| crate::dot(a.row(i), &x_true)).collect();
        let x = chol.solve(&b).unwrap();
        for (xa, xb) in x.iter().zip(&x_true) {
            assert!((xa - xb).abs() < 1e-10);
        }
    }

    #[test]
    fn log_det_matches() {
        // det(spd3) = det(L)² = (5·3·3)² = 2025
        let chol = Cholesky::factor(&spd3()).unwrap();
        assert!((chol.log_det() - 2025f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn reconstruct_roundtrip() {
        let a = spd3();
        let r = Cholesky::factor(&a).unwrap().reconstruct();
        for i in 0..3 {
            for j in 0..3 {
                assert!((a[(i, j)] - r[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn jitter_rescues_near_singular() {
        // Rank-1 Gram matrix: xxᵀ with x = (1,1); singular but jitter fixes it.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let chol = Cholesky::factor(&a).unwrap();
        assert!(chol.jitter() > 0.0);
        assert!(chol.l().is_finite());
    }

    #[test]
    fn rejects_negative_definite() {
        let a = Matrix::from_rows(&[&[-4.0, 0.0], &[0.0, -4.0]]).unwrap();
        assert!(matches!(
            Cholesky::factor(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite { .. }
        ));
    }

    #[test]
    fn rejects_non_square_and_nan() {
        assert!(Cholesky::factor(&Matrix::zeros(2, 3)).is_err());
        let mut a = Matrix::zeros(2, 2);
        a.add_diagonal(1.0);
        a[(0, 0)] = f64::NAN;
        assert!(matches!(
            Cholesky::factor(&a).unwrap_err(),
            LinalgError::NonFinite { .. }
        ));
    }

    #[test]
    fn extend_matches_full_factor() {
        // Border spd3 with a new row/diag and compare against refactoring.
        let a = spd3();
        let row = [1.0, 2.0, -0.5];
        let diag = 30.0;
        let ext = Cholesky::factor(&a).unwrap().extend(&row, diag).unwrap();
        let mut full = Matrix::zeros(4, 4);
        for i in 0..3 {
            for j in 0..3 {
                full[(i, j)] = a[(i, j)];
            }
            full[(3, i)] = row[i];
            full[(i, 3)] = row[i];
        }
        full[(3, 3)] = diag;
        let direct = Cholesky::factor(&full).unwrap();
        assert_eq!(ext.dim(), 4);
        for i in 0..4 {
            for j in 0..4 {
                assert!((ext.l()[(i, j)] - direct.l()[(i, j)]).abs() < 1e-12);
            }
        }
        assert!((ext.log_det() - direct.log_det()).abs() < 1e-12);
    }

    #[test]
    fn extend_chain_solves_like_scratch() {
        let a = spd3();
        let chol = Cholesky::factor(&a).unwrap();
        let c1 = chol.extend(&[1.0, 0.0, 1.0], 20.0).unwrap();
        let c2 = c1.extend(&[0.5, 0.5, 0.5, 0.5], 15.0).unwrap();
        let rec = c2.reconstruct();
        let b: Vec<f64> = (0..5).map(|i| i as f64 - 2.0).collect();
        let x = c2.solve(&b).unwrap();
        let resid = (0..5).map(|i| crate::dot(rec.row(i), &x));
        for (r, bi) in resid.zip(&b) {
            assert!((r - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn extend_rescues_dependent_row_with_local_jitter() {
        // The new row equals an existing one → Schur complement ~0; the
        // local jitter must rescue the factorization.
        let a = spd3();
        let chol = Cholesky::factor(&a).unwrap();
        let ext = chol.extend(&[25.0, 15.0, -5.0], 25.0).unwrap();
        assert!(ext.l().is_finite());
        assert!(ext.l()[(3, 3)] > 0.0);
    }

    #[test]
    fn extend_validates_input() {
        let chol = Cholesky::factor(&spd3()).unwrap();
        assert!(matches!(
            chol.extend(&[1.0, 2.0], 1.0).unwrap_err(),
            LinalgError::DimensionMismatch { .. }
        ));
        assert!(matches!(
            chol.extend(&[1.0, f64::NAN, 0.0], 1.0).unwrap_err(),
            LinalgError::NonFinite { .. }
        ));
        assert!(matches!(
            chol.extend(&[1.0, 0.0, 0.0], f64::INFINITY).unwrap_err(),
            LinalgError::NonFinite { .. }
        ));
        // A wildly negative diagonal cannot be rescued.
        assert!(matches!(
            chol.extend(&[0.0, 0.0, 0.0], -100.0).unwrap_err(),
            LinalgError::NotPositiveDefinite { .. }
        ));
    }

    #[test]
    fn solve_half_from_zero_matches_solve_half() {
        let chol = Cholesky::factor(&spd3()).unwrap();
        let b = [1.0, 2.0, 3.0];
        let expect = chol.solve_half(&b).unwrap();
        let mut out = vec![0.0; 3];
        chol.solve_half_from(&b, &mut out, 0).unwrap();
        assert_eq!(out, expect);
        let mut short = vec![0.0; 2];
        assert!(matches!(
            chol.solve_half_from(&b, &mut short, 0).unwrap_err(),
            LinalgError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn solve_half_quadratic_form() {
        let a = spd3();
        let chol = Cholesky::factor(&a).unwrap();
        let b = [1.0, 2.0, 3.0];
        let y = chol.solve_half(&b).unwrap();
        let q1: f64 = y.iter().map(|v| v * v).sum();
        let x = chol.solve(&b).unwrap();
        let q2: f64 = b.iter().zip(&x).map(|(a, b)| a * b).sum();
        assert!((q1 - q2).abs() < 1e-10);
    }
}
