//! Multi-objective Bayesian optimization for the BoFL reproduction.
//!
//! BoFL's Pareto-front-construction phase (paper §4.3) searches the DVFS
//! configuration space for configurations that are Pareto-optimal in the
//! 2-D `(energy, latency)` objective space. This crate implements the
//! machinery that phase needs, replacing the Python library Trieste used by
//! the original implementation:
//!
//! - [`pareto`] — dominance and Pareto-front maintenance over 2-D
//!   objective vectors (the paper's §3.2 definitions);
//! - [`hypervolume`] — the exact 2-D hypervolume indicator (Eqn. 4) and
//!   hypervolume improvement (Eqn. 5);
//! - [`ehvi`] — the exact 2-D *expected* hypervolume improvement
//!   acquisition function (Eqn. 6) under independent Gaussian posteriors;
//! - [`sobol`] — a Sobol quasi-random sequence for the uniform start
//!   points of the safe-random-exploration phase (§4.2);
//! - [`MoboEngine`] — the end-to-end engine: observe → fit two GPs →
//!   propose a batch via sequential-greedy EHVI with fantasized
//!   observations → report the hypervolume trajectory for the stopping
//!   rule.
//!
//! # Examples
//!
//! ```
//! use bofl_mobo::{MoboEngine, MoboConfig, Observation};
//!
//! # fn main() -> Result<(), bofl_mobo::MoboError> {
//! let mut engine = MoboEngine::new(MoboConfig::default());
//! // Observe a few points of a toy 1-D problem with conflicting
//! // objectives f1(x) = x, f2(x) = 1 - x.
//! for &x in &[0.0, 0.3, 0.7, 1.0] {
//!     engine.observe(Observation::new(vec![x], [x, 1.0 - x]))?;
//! }
//! let batch = engine.suggest(2, &[vec![0.1], vec![0.5], vec![0.9]])?;
//! assert_eq!(batch.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ehvi;
pub mod hypervolume;
pub mod pareto;
pub mod sobol;

mod engine;
mod error;

pub use engine::{greedy_batch, MoboConfig, MoboEngine, Observation, Pick, StoppingRule};
pub use error::MoboError;
pub use pareto::{pareto_front_indices, ParetoFront};
pub use sobol::SobolSequence;
