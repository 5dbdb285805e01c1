//! Small, dependency-free dense linear-algebra kernels for the BoFL
//! reproduction.
//!
//! The Gaussian-process surrogate ([`bofl-gp`]) and the EHVI acquisition
//! ([`bofl-mobo`]) need a handful of dense operations on small matrices:
//! one client's MBO data set stops growing near 3% of the configuration
//! grid, a few dozen observations (64 at most in any shipped workload). This crate provides
//! exactly those kernels — row-major [`Matrix`], [`Cholesky`]
//! factorization with jitter escalation, triangular solves, and streaming
//! statistics — and nothing else.
//!
//! Every dense operation reduces each output element to one call of a
//! shared fixed-order dot micro-kernel (see `kernels`), so results are
//! bitwise reproducible whatever order the loops visit the elements in.
//!
//! # Examples
//!
//! Solving a symmetric positive-definite system via Cholesky:
//!
//! ```
//! use bofl_linalg::{Matrix, Cholesky};
//!
//! # fn main() -> Result<(), bofl_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
//! let chol = Cholesky::factor(&a)?;
//! let x = chol.solve(&[2.0, 3.0])?;
//! assert!((4.0 * x[0] + 2.0 * x[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```
//!
//! [`bofl-gp`]: https://docs.rs/bofl-gp
//! [`bofl-mobo`]: https://docs.rs/bofl-mobo

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cholesky;
mod error;
mod kernels;
mod matrix;
mod stats;
mod triangular;
mod vecops;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use matrix::Matrix;
pub use stats::{OnlineStats, Standardizer};
pub use triangular::solve_lower;
pub use vecops::dot;
