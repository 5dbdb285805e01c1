//! Federated-learning substrate for the BoFL reproduction.
//!
//! The paper evaluates BoFL inside a standard FedAvg deployment (its
//! Fig. 1): a server selects clients each round, ships them the global
//! model, assigns a training deadline, and averages the updates that come
//! back in time. This crate provides that substrate end-to-end so the
//! examples can demonstrate BoFL controlling *real* (small-scale) training
//! rather than a mock:
//!
//! - [`model`] — a trainable softmax linear classifier with genuine SGD;
//! - [`data`] — synthetic federated datasets with Dirichlet label skew
//!   (the standard non-IID benchmark partition), each stored as one
//!   row-major feature buffer;
//! - [`client`] — an FL client whose training executor performs one
//!   true SGD minibatch step per *job* while `bofl`'s `SimExecutor`
//!   charges the corresponding latency and energy; the pace controller
//!   (BoFL or a baseline) decides each job's DVFS configuration;
//! - [`server`] — a FedAvg server with client selection, per-round
//!   deadline assignment, straggler dropping and weighted aggregation;
//! - [`engine`] — the round-execution seam: the server hands each round's
//!   batch of [`engine::ClientJob`]s to a pluggable [`engine::RoundEngine`]
//!   ([`engine::SequentialEngine`] by default; the `bofl-fleet` crate
//!   provides a deterministic multi-threaded engine with fault injection).
//!
//! # Examples
//!
//! ```
//! use bofl_fl::prelude::*;
//! use bofl::BoflConfig;
//!
//! let config = FederationConfig {
//!     num_clients: 4,
//!     clients_per_round: 2,
//!     rounds: 3,
//!     deadline_ratio: 2.0,
//!     seed: 7,
//!     ..FederationConfig::default()
//! };
//! let mut sim = Federation::builder(config)
//!     .controller_factory(|_id| Box::new(bofl::BoflController::new(BoflConfig::fast_test())))
//!     .build();
//! let history = sim.run();
//! assert_eq!(history.rounds.len(), 3);
//! // Training made progress on the synthetic task.
//! assert!(history.rounds.last().unwrap().test_accuracy > 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod client;
pub mod data;
pub mod engine;
pub mod model;
pub mod network;
pub mod server;

pub use client::FlClient;
pub use data::{FederatedData, SyntheticDataset};
pub use engine::{ClientJob, ClientOutcome, RoundDeadline, RoundEngine, SequentialEngine};
pub use model::{fold_scores, Minibatch, SoftmaxModel};
pub use network::{NetworkModel, ReportingDeadline, RetryPolicy};
pub use server::{
    AggregationPolicy, DeadlinePolicy, Federation, FederationBuilder, FederationConfig,
    RoundRecord, RunHistory, SelectionPolicy,
};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::client::FlClient;
    pub use crate::data::{FederatedData, SyntheticDataset};
    pub use crate::engine::{
        ClientJob, ClientOutcome, RoundDeadline, RoundEngine, SequentialEngine,
    };
    pub use crate::model::SoftmaxModel;
    pub use crate::network::{NetworkModel, ReportingDeadline, RetryPolicy};
    pub use crate::server::{
        AggregationPolicy, DeadlinePolicy, Federation, FederationBuilder, FederationConfig,
        RoundRecord, RunHistory, SelectionPolicy,
    };
}
