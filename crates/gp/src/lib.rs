//! Gaussian-process regression for the BoFL reproduction.
//!
//! The paper's MBO engine (built on the Python library Trieste) models the
//! two blackbox objectives `T(x)` and `E(x)` as independent Gaussian
//! processes with zero prior mean and a Matérn-5/2 kernel (§4.3, "MBO prior
//! function"). This crate implements that surrogate from scratch:
//!
//! - [`Matern52`] — the paper's covariance function, with ARD
//!   lengthscales; it is the only kernel;
//! - [`PairTable`] — a point set's pair differences, built once so a
//!   likelihood search fills each Gram matrix in vectorizable passes;
//! - [`GaussianProcess`] — exact GP regression with Cholesky solves,
//!   type-II maximum-likelihood hyperparameters (kernel variance,
//!   lengthscales and observation noise, by multi-start Nelder–Mead on
//!   the log marginal likelihood), and *fantasized conditioning* for the
//!   sequential-greedy batch strategy of §4.3;
//! - [`SurrogateModel`] — the object-safe seam the MBO engine drives its
//!   surrogates through;
//! - [`NelderMead`] — the derivative-free optimizer used for the MLE fit.
//!
//! # Examples
//!
//! Fitting a 1-D GP and checking the posterior interpolates:
//!
//! ```
//! use bofl_gp::{GaussianProcess, GpConfig};
//!
//! # fn main() -> Result<(), bofl_gp::GpError> {
//! let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin()).collect();
//! let gp = GaussianProcess::fit(&xs, &ys, GpConfig::default())?;
//! let p = gp.predict(&[0.5])?;
//! assert!((p.mean - (3.0f64).sin()).abs() < 0.2);
//! assert!(p.variance >= 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! Refitting cheaply after new observations arrive, by warm-starting the
//! hyperparameter search from the previous optimum ([`GpConfig::warm_start`]
//! plus a reduced [`GpConfig::restarts`] — the fast surrogate path the MBO
//! engine uses between full multi-start refits):
//!
//! ```
//! use bofl_gp::{GaussianProcess, GpConfig, WarmStart};
//!
//! # fn main() -> Result<(), bofl_gp::GpError> {
//! let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin()).collect();
//! let gp = GaussianProcess::fit(&xs, &ys, GpConfig::default())?;
//!
//! // Two new points arrive; seed the refit from the fitted optimum and
//! // drop to a single Nelder–Mead start.
//! let mut xs2 = xs.clone();
//! xs2.extend([vec![0.9], vec![0.95]]);
//! let ys2: Vec<f64> = xs2.iter().map(|x| (6.0 * x[0]).sin()).collect();
//! let warm = GpConfig {
//!     restarts: 1,
//!     warm_start: Some(WarmStart {
//!         variance: gp.kernel().variance(),
//!         lengthscales: gp.kernel().lengthscales().to_vec(),
//!         noise: gp.noise_variance(),
//!     }),
//!     ..GpConfig::default()
//! };
//! let refit = GaussianProcess::fit(&xs2, &ys2, warm)?;
//! assert!(refit.predict(&[0.5])?.mean.is_finite());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod gp;
mod kernel;
mod neldermead;
mod surrogate;

pub use error::GpError;
pub use gp::{GaussianProcess, GpConfig, Posterior, PredictCache, WarmStart};
pub use kernel::{Matern52, PairTable};
pub use neldermead::{NelderMead, NelderMeadResult};
pub use surrogate::SurrogateModel;
