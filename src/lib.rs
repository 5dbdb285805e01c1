//! Umbrella crate for the BoFL reproduction workspace.
//!
//! This root package exists to host the runnable examples
//! (`examples/*.rs`) and the cross-crate integration tests (`tests/`).
//! Library users should depend on the individual crates directly:
//!
//! - [`bofl`] — the BoFL pace controller, baselines and experiment runner;
//! - [`bofl_device`] — the simulated Jetson devices (DVFS, power, sensor);
//! - [`bofl_workload`] — NN workload descriptors and FL task presets;
//! - [`bofl_fl`] — the FedAvg substrate with real SGD training;
//! - [`bofl_gp`] / [`bofl_mobo`] / [`bofl_ilp`] / [`bofl_linalg`] — the
//!   numerical substrates (Gaussian processes, multi-objective Bayesian
//!   optimization, integer linear programming, dense linear algebra).
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for the paper-vs-
//! measured record of every reproduced table and figure.

pub use bofl;
pub use bofl_device;
pub use bofl_fl;
pub use bofl_gp;
pub use bofl_ilp;
pub use bofl_linalg;
pub use bofl_mobo;
pub use bofl_workload;

/// The README's Rust snippets, compiled as doctests so the docs cannot
/// drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
