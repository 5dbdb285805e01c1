//! The exploitation-phase integer program of the BoFL reproduction.
//!
//! The paper's exploitation phase (§4.4) solves Eqn. (1) restricted to the
//! approximated Pareto set: choose how many of the round's `W` jobs to run
//! at each Pareto-optimal configuration so that total energy is minimal and
//! the round deadline is met. The original implementation calls Gurobi;
//! [`solve_profile`] solves this one problem shape exactly with a
//! branch-and-bound whose node bounds are the 2-row LP relaxation in
//! closed form (see [`profile`]).
//!
//! # Examples
//!
//! ```
//! use bofl_ilp::{solve_profile, ConfigCost};
//!
//! // Three Pareto points (latency s, energy J), three jobs, 6 s budget.
//! let candidates = [
//!     ConfigCost { latency_s: 1.0, energy_j: 10.0 },
//!     ConfigCost { latency_s: 2.0, energy_j: 7.0 },
//!     ConfigCost { latency_s: 3.0, energy_j: 3.0 },
//! ];
//! let p = solve_profile(&candidates, 3, 6.0)?;
//! // One job at each: 20 J in exactly 6 s, cheaper than any two-point mix.
//! assert_eq!(p.counts, vec![1, 1, 1]);
//! assert!((p.energy_j - 20.0).abs() < 1e-9);
//! # Ok::<(), bofl_ilp::ProfileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod profile;

pub use profile::{solve_profile, ConfigCost, Profile, ProfileError};
