//! **BoFL** — Bayesian-optimized local training pace control for
//! energy-efficient federated learning.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Guo et al., Middleware '22): a controller deployed on each federated-
//! learning client that chooses DVFS configurations
//! `(f_cpu, f_gpu, f_mem)` per minibatch job so that every round's
//! server-assigned deadline is met while total training energy is
//! minimized. It operates in three phases:
//!
//! 1. **Safe random exploration** ([`controller`], §4.2 of the paper) —
//!    Sobol-sampled start points (~1% of the configuration space) are
//!    measured under a *deadline guardian* that falls back to the
//!    known-fast `x_max` the moment a deadline is at risk;
//! 2. **Pareto front construction** (§4.3) — a multi-objective Bayesian
//!    optimization engine ([`bofl_mobo`]) proposes batches of candidates
//!    via expected-hypervolume-improvement, still executed safely;
//! 3. **Exploitation** (§4.4) — each remaining round solves an integer
//!    linear program ([`bofl_ilp`]) over the approximated Pareto set and
//!    runs the resulting job mix.
//!
//! Baselines from the paper's evaluation are included:
//! [`baselines::PerformantController`] (always `x_max`) and
//! [`baselines::OracleController`] (full offline profile).
//!
//! The [`runner`] module provides the round-by-round client simulator that
//! drives every experiment in `EXPERIMENTS.md`.
//!
//! # Quickstart
//!
//! ```
//! use bofl::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let device = Device::jetson_agx();
//! let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
//! // Ten rounds with deadlines twice the minimum round latency.
//! let deadlines = DeadlineSchedule::uniform(&device, &task, 10, 2.0, 7).deadlines().to_vec();
//! let mut controller = BoflController::new(BoflConfig::fast_test());
//! let runs = ClientRunner::new(device, task, 99).run(&mut controller, &deadlines);
//! assert_eq!(runs.reports.len(), 10);
//! assert!(runs.reports.iter().all(|r| r.deadline_met));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod controller;
/// The controller-facing executor abstraction over a device.
pub mod executor;
pub mod exploit;
pub mod guardian;
pub mod metrics;
/// Aggregated measurement storage.
pub mod observation;
pub mod runner;
/// Round specifications, phases and the `PaceController` trait.
pub mod task;
/// Per-job execution tracing (composable executor wrapper).
pub mod trace;

pub use controller::{BoflConfig, BoflController};
pub use executor::JobExecutor;
pub use exploit::ExploitParams;
pub use observation::{AggregatedObservation, ObservationStore, QuarantinePolicy};
pub use runner::{ClientRunner, DeadlineSchedule, RoundReport, RunSummary};
pub use task::{Phase, RoundSpec};

// Compile-time Send audit: fleet-scale simulation moves clients (and the
// controllers they own) across worker threads, so every controller and the
// boxed trait object must remain `Send`. A regression here should fail the
// build, not surface as a distant trait-bound error in `bofl-fleet`.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<controller::BoflController>();
    assert_send::<baselines::PerformantController>();
    assert_send::<baselines::OracleController>();
    assert_send::<Box<dyn task::PaceController>>();
};

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use crate::baselines::{OracleController, PerformantController};
    pub use crate::controller::{BoflConfig, BoflController};
    pub use crate::executor::JobExecutor;
    pub use crate::exploit::ExploitParams;
    pub use crate::metrics::{improvement_vs, regret_vs};
    pub use crate::observation::QuarantinePolicy;
    pub use crate::runner::{ClientRunner, DeadlineSchedule, RoundReport, RunSummary};
    pub use crate::task::{PaceController, Phase, RoundSpec};
    pub use bofl_device::{ConfigSpace, Device, DvfsConfig, FreqMHz, FreqTable, JobCost};
    pub use bofl_workload::{FlTask, TaskKind, Testbed};
}
