use std::error::Error;
use std::fmt;

/// Error type for every fallible operation in this crate.
///
/// All variants carry enough context to diagnose the failing call without a
/// debugger; `Display` messages are lowercase and concise per Rust API
/// guidelines (C-GOOD-ERR).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Matrix dimensions were incompatible for the requested operation.
    DimensionMismatch {
        /// Dimensions of the left/first operand `(rows, cols)`.
        left: (usize, usize),
        /// Dimensions of the right/second operand `(rows, cols)`.
        right: (usize, usize),
        /// The operation that was attempted, e.g. `"from_rows"`.
        op: &'static str,
    },
    /// A square matrix was required but a rectangular one was supplied.
    NotSquare {
        /// Actual dimensions `(rows, cols)`.
        dims: (usize, usize),
    },
    /// Cholesky factorization failed: the matrix is not positive definite
    /// even after the maximum jitter was added to the diagonal.
    NotPositiveDefinite {
        /// Index of the pivot that went non-positive.
        pivot: usize,
        /// The final jitter value that was attempted.
        jitter: f64,
    },
    /// A triangular solve hit a zero (or subnormal) diagonal entry.
    SingularTriangular {
        /// Index of the offending diagonal entry.
        index: usize,
    },
    /// An input slice was empty where at least one element is required.
    Empty {
        /// Name of the offending argument.
        what: &'static str,
    },
    /// A non-finite (NaN or infinite) value was found in an input.
    NonFinite {
        /// Name of the offending argument.
        what: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { left, right, op } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotSquare { dims } => {
                write!(f, "square matrix required, got {}x{}", dims.0, dims.1)
            }
            LinalgError::NotPositiveDefinite { pivot, jitter } => write!(
                f,
                "matrix is not positive definite (pivot {pivot} non-positive with jitter {jitter:e})"
            ),
            LinalgError::SingularTriangular { index } => {
                write!(f, "singular triangular matrix (zero diagonal at {index})")
            }
            LinalgError::Empty { what } => write!(f, "{what} must not be empty"),
            LinalgError::NonFinite { what } => write!(f, "{what} contains a non-finite value"),
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let errs = [
            LinalgError::DimensionMismatch {
                left: (2, 3),
                right: (4, 5),
                op: "from_rows",
            },
            LinalgError::NotSquare { dims: (2, 3) },
            LinalgError::NotPositiveDefinite {
                pivot: 1,
                jitter: 1e-6,
            },
            LinalgError::SingularTriangular { index: 0 },
            LinalgError::Empty { what: "xs" },
            LinalgError::NonFinite { what: "ys" },
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
