//! **bofl-fleet** — fleet-scale federated-learning simulation for BoFL.
//!
//! The paper evaluates BoFL on a handful of boards; this crate scales the
//! same simulation to populations of hundreds of heterogeneous clients
//! while keeping every run bit-for-bit reproducible:
//!
//! - [`generator`] — samples a heterogeneous fleet from the testbed
//!   device models: mixed AGX/TX2 boards with per-client thermal/latency
//!   jitter and DVFS-transition variation, all a pure function of the
//!   fleet seed ([`FleetSpec`]);
//! - [`fault`] — deterministic fault injection ([`FaultPlan`]): client
//!   dropout, transient straggler slowdowns and upload failures, drawn
//!   per `(round, client)` from a dedicated seed;
//! - [`metrics`] — [`FleetMetrics`], per-round energy/latency
//!   distributions, deadline-miss rate, fault counts and controller-phase
//!   occupancy, exported as CSV in the `results/` conventions;
//! - [`scale`] — [`ScaleSimulation`], the million-client registry run
//!   over 20-byte [`ClientStat`] records instead of live models;
//! - [`shard`] — hierarchical-aggregation accounting
//!   ([`ShardRoundStats`], an in-memory per-shard breakdown the scale
//!   trace never includes).
//!
//! Fleets of real clients run through `bofl_control::ControlSimulation`,
//! the journalled builder over this crate's generator, faults and
//! metrics. A barrier round needs no builder:
//! `bofl_fl::Federation::builder` runs one on its default engine.
//!
//! # Example
//!
//! ```
//! use bofl_fleet::prelude::*;
//! use bofl_fl::{Federation, FederationConfig};
//!
//! let spec = FleetSpec::mixed(12, 7);
//! let config = FederationConfig {
//!     num_clients: spec.num_clients,
//!     clients_per_round: 4,
//!     rounds: 2,
//!     seed: 7,
//!     ..FederationConfig::default()
//! };
//! let mut federation = Federation::builder(config)
//!     .device_factory(move |id| spec.device(id))
//!     .build();
//! let history = federation.run();
//! assert_eq!(history.rounds.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compress;
pub mod fault;
pub mod generator;
pub mod metrics;
pub mod process;
pub mod sampler;
pub mod scale;
pub mod shard;
pub mod wire;

pub use compress::{CompressedUpdate, Compressor, Int8Quantizer, NoCompression, TopKSparsifier};
pub use fault::{ChurnStatus, FaultDraw, FaultPlan};
pub use generator::{ClientProfile, DeviceKind, FleetSpec};
pub use metrics::{Distribution, FleetMetrics, FleetRoundStats};
pub use process::{ClientSpec, ProcessClientHarness};
pub use sampler::{
    ClientSampler, ClientStat, EnergyAwareSampler, LossStalenessSampler, UniformSampler,
};
pub use scale::{ScaleConfig, ScaleReport, ScaleRoundTrace, ScaleSimulation};
pub use shard::{ShardPlan, ShardRoundStats, UpdateAccumulator};
pub use wire::{Frame, FrameReader, WireError, WireMsg};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::compress::{
        CompressedUpdate, Compressor, Int8Quantizer, NoCompression, TopKSparsifier,
    };
    pub use crate::fault::{ChurnStatus, FaultDraw, FaultPlan};
    pub use crate::generator::{ClientProfile, DeviceKind, FleetSpec};
    pub use crate::metrics::{Distribution, FleetMetrics, FleetRoundStats};
    pub use crate::process::{ClientSpec, ProcessClientHarness};
    pub use crate::sampler::{
        ClientSampler, ClientStat, EnergyAwareSampler, LossStalenessSampler, UniformSampler,
    };
    pub use crate::scale::{ScaleConfig, ScaleReport, ScaleRoundTrace, ScaleSimulation};
    pub use crate::shard::{ShardPlan, ShardRoundStats, UpdateAccumulator};
    pub use crate::wire::{Frame, FrameReader, WireError, WireMsg};
    pub use bofl_fl::network::RetryPolicy;
    pub use bofl_fl::server::AggregationPolicy;
}
