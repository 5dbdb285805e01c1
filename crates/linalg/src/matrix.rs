use crate::LinalgError;

/// A dense, row-major, heap-allocated matrix of `f64`.
///
/// Sized for the BoFL workloads: Gram matrices of a few dozen rows, one
/// per objective surrogate of a single client's MBO data set.
///
/// # Examples
///
/// ```
/// use bofl_linalg::Matrix;
///
/// # fn main() -> Result<(), bofl_linalg::LinalgError> {
/// let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// a.add_diagonal(0.5);
/// assert_eq!((a.rows(), a.cols()), (2, 2));
/// assert_eq!(a.row(1), &[3.0, 4.5]);
/// assert_eq!(a[(0, 0)], 1.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if `rows` is empty, and
    /// [`LinalgError::DimensionMismatch`] if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let first = rows.first().ok_or(LinalgError::Empty { what: "rows" })?;
        let cols = first.len();
        if cols == 0 {
            return Err(LinalgError::Empty { what: "rows[0]" });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    left: (1, cols),
                    right: (1, r.len()),
                    op: "from_rows",
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Wraps a row-major buffer of exactly `rows × cols` entries.
    pub(crate) fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
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

    /// `true` if the matrix is square.
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrows the backing row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Adds `v` to every diagonal entry in place.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diagonal(&mut self, v: f64) {
        assert!(self.is_square(), "add_diagonal requires a square matrix");
        for i in 0..self.rows {
            self[(i, i)] += v;
        }
    }

    /// `true` if every entry is finite.
    pub(crate) fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_the_shape() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(!z.is_square());
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(matches!(
            Matrix::from_rows(&[]).unwrap_err(),
            LinalgError::Empty { .. }
        ));
    }

    #[test]
    fn add_diagonal_touches_only_the_diagonal() {
        let mut a = Matrix::zeros(2, 2);
        a.add_diagonal(0.5);
        assert_eq!(a.as_slice(), &[0.5, 0.0, 0.0, 0.5]);
    }

    #[test]
    fn display_nonempty() {
        let a = Matrix::zeros(2, 2);
        assert!(!format!("{a}").is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        let a = Matrix::zeros(1, 1);
        let _ = a.row(1);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut a = Matrix::zeros(1, 1);
        assert!(a.is_finite());
        a[(0, 0)] = f64::NAN;
        assert!(!a.is_finite());
    }
}
