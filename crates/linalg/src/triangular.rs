use crate::{LinalgError, Matrix};

/// Solves `L x = b` by forward substitution, where `L` is lower triangular.
///
/// Only the lower triangle of `l` is read; entries above the diagonal are
/// ignored, so a full square matrix whose lower triangle holds the factor is
/// acceptable.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] if `l` is rectangular,
/// [`LinalgError::DimensionMismatch`] if `b.len() != l.rows()`, and
/// [`LinalgError::SingularTriangular`] on a (near-)zero diagonal entry.
///
/// # Examples
///
/// ```
/// use bofl_linalg::{Matrix, solve_lower};
///
/// # fn main() -> Result<(), bofl_linalg::LinalgError> {
/// let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]])?;
/// let x = solve_lower(&l, &[2.0, 7.0])?;
/// assert_eq!(x, vec![1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
pub fn solve_lower(l: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    check(l, b)?;
    let n = l.rows();
    let mut x = vec![0.0; n];
    for i in 0..n {
        // One fixed-order dot over the already-solved prefix; same
        // association as `Cholesky::solve_half_from` so the two paths stay
        // bitwise interchangeable.
        let prefix = crate::kernels::dot_kernel(&l.row(i)[..i], &x[..i]);
        let d = l[(i, i)];
        if !d.is_normal() {
            return Err(LinalgError::SingularTriangular { index: i });
        }
        x[i] = (b[i] - prefix) / d;
    }
    Ok(x)
}

fn check(m: &Matrix, b: &[f64]) -> Result<(), LinalgError> {
    if !m.is_square() {
        return Err(LinalgError::NotSquare {
            dims: (m.rows(), m.cols()),
        });
    }
    if b.len() != m.rows() {
        return Err(LinalgError::DimensionMismatch {
            left: (m.rows(), m.cols()),
            right: (b.len(), 1),
            op: "triangular solve",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_roundtrip() {
        let l = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[2.0, 3.0, 0.0], &[4.0, 5.0, 6.0]]).unwrap();
        let x_true = [1.0, -2.0, 0.5];
        let b: Vec<f64> = (0..3).map(|i| crate::dot(l.row(i), &x_true)).collect();
        let x = solve_lower(&l, &b).unwrap();
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_detected() {
        let l = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]).unwrap();
        assert!(matches!(
            solve_lower(&l, &[1.0, 1.0]).unwrap_err(),
            LinalgError::SingularTriangular { index: 0 }
        ));
    }

    #[test]
    fn dimension_checks() {
        let l = Matrix::zeros(2, 3);
        assert!(matches!(
            solve_lower(&l, &[1.0, 1.0]).unwrap_err(),
            LinalgError::NotSquare { .. }
        ));
        let l = Matrix::zeros(2, 2);
        assert!(matches!(
            solve_lower(&l, &[1.0]).unwrap_err(),
            LinalgError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn ignores_other_triangle() {
        // Upper-triangle garbage must not affect a lower solve.
        let l = Matrix::from_rows(&[&[2.0, 999.0], &[1.0, 3.0]]).unwrap();
        let x = solve_lower(&l, &[2.0, 7.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0]);
    }
}
