//! **bofl-control** — an event-driven federation control plane for BoFL.
//!
//! The barrier engine in `bofl-fl` (`SequentialEngine`) treats a round as
//! a join: run every selected client, then aggregate the survivors. This
//! crate re-frames the same round as a *timeline of lifecycle events*:
//!
//! - [`state`] — every client is an explicit `#[repr(u8)]` state machine
//!   (`Idle → Selected → Training → Reporting → Aggregated`, with
//!   `Dropped`, `Escalated`, `Quarantined` and `Departed` as ordinary
//!   transitions, not special cases). Illegal `(state, event)` pairs are
//!   typed [`TransitionError`]s — never panics.
//! - [`journal`] — every transition appends a timestamped [`EventEntry`]
//!   to a bounded [`EventJournal`] ring with a never-resetting sequence
//!   counter, exportable as CSV or JSONL next to the fleet-metrics CSV.
//! - [`plane`] — [`ControlPlane`] holds the fleet's state vector,
//!   enforces the transition contract, journals what it applies, and can
//!   [`ControlPlane::replay`] a journal to reconstruct final states.
//! - [`engine`] — [`EventDrivenEngine`] implements `bofl_fl`'s
//!   `RoundEngine` seam and runs every fleet: client jobs execute on
//!   `bofl_fleet::shard::drain_tasks`' deterministic worker pool with
//!   seeded fault injection and bounded upload retry, rounds *close on
//!   quorum events* (the first `close_target` accepted reports, in
//!   virtual arrival order) instead of waiting for every straggler, and
//!   churn (clients joining and leaving the fleet mid-run, even
//!   mid-round) is handled as ordinary transitions.
//! - [`transport`] — delivery is a pluggable [`Transport`] seam;
//!   [`VirtualTransport`] (identity) is the default.
//! - [`socket`] — [`SocketTransport`] carries the same envelopes over
//!   real localhost TCP (length-prefixed, checksummed frames from
//!   `bofl_fleet::wire`) with bounded seeded reconnect/backoff, per-send
//!   ack timeouts and a ping/pong heartbeat lane; virtual timestamps
//!   ride inside the frames, so the zero-fault journal stays
//!   byte-identical to [`VirtualTransport`].
//! - [`chaos`] — [`ChaosTransport`] decorates any carrier with seeded
//!   delay, drop, duplication, reordering and partitions drawn from a
//!   [`ChaosPlan`] (same stream discipline as `FaultPlan`).
//! - [`wal`] — [`JournalWal`], a group-committed append-only
//!   write-ahead log of journal records (one fsync per round close)
//!   with torn-tail truncation on open, powering
//!   [`ControlPlane::resume`] (crash-safe coordinator restart) and
//!   [`JournalTail`] (a follow-mode reader that never perturbs the
//!   writer — the `journal_tail` bin).
//! - [`liveness`] — [`LivenessPolicy`] arms per-client heartbeat
//!   deadlines: silent clients are `Suspected`, then expired; an update
//!   arriving in between heals them. When the close target becomes
//!   unreachable the round closes *degraded* and the next round's close
//!   target widens (over-selection escalation) instead of hanging.
//! - [`sim`] — [`ControlSimulation`], the one builder for fleets of real
//!   clients: fleet generator, engine, metrics and journal wired into a
//!   `bofl_fl::Federation`.
//!
//! Virtual timestamps are derived from simulated durations, seeded
//! retry backoffs and seeded chaos draws — never the wall clock — so for
//! a fixed fleet seed the journal is **byte-identical at any worker
//! count and any transport lane count**.
//!
//! # Example
//!
//! ```
//! use bofl_control::prelude::*;
//! use bofl_fl::server::{AggregationPolicy, FederationConfig};
//!
//! let spec = FleetSpec::mixed(12, 7);
//! let mut sim = ControlSimulation::builder(spec)
//!     .federation(FederationConfig {
//!         clients_per_round: 4,
//!         rounds: 2,
//!         seed: 7,
//!         aggregation: AggregationPolicy::recovery(),
//!         ..FederationConfig::default()
//!     })
//!     .workers(4)
//!     .faults(FaultPlan::new(1).with_churn(0.05, 2))
//!     .build();
//! let report = sim.run();
//! assert_eq!(report.closes.len(), 2);
//! // The same run at any worker count journals the identical events.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod engine;
pub mod journal;
pub mod liveness;
pub mod plane;
pub mod sim;
pub mod socket;
pub mod state;
pub mod transport;
pub mod wal;

pub use chaos::{ChaosPlan, ChaosTransport};
pub use engine::EventDrivenEngine;
pub use journal::{EventCause, EventEntry, EventJournal, RoundClose};
pub use liveness::LivenessPolicy;
pub use plane::{ControlPlane, ReplayError, ResumeError, ResumeReport};
pub use sim::{ControlRunReport, ControlSimulation, ControlSimulationBuilder};
pub use socket::SocketTransport;
pub use state::{ClientEvent, ClientState, TransitionError};
pub use transport::{Carried, Delivery, Envelope, Transport, VirtualTransport, WireStats};
pub use wal::{JournalTail, JournalWal, WalError, WalRecord};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::chaos::{ChaosPlan, ChaosTransport};
    pub use crate::engine::EventDrivenEngine;
    pub use crate::journal::{EventCause, EventEntry, EventJournal, RoundClose};
    pub use crate::liveness::LivenessPolicy;
    pub use crate::plane::{ControlPlane, ReplayError, ResumeError, ResumeReport};
    pub use crate::sim::{ControlRunReport, ControlSimulation, ControlSimulationBuilder};
    pub use crate::socket::SocketTransport;
    pub use crate::state::{ClientEvent, ClientState, TransitionError};
    pub use crate::transport::{
        Carried, Delivery, Envelope, Transport, VirtualTransport, WireStats,
    };
    pub use crate::wal::{JournalTail, JournalWal, WalError, WalRecord};
    pub use bofl_fl::network::{NetworkModel, RetryPolicy};
    pub use bofl_fl::server::AggregationPolicy;
    pub use bofl_fleet::compress::{
        CompressedUpdate, Compressor, Int8Quantizer, NoCompression, TopKSparsifier,
    };
    pub use bofl_fleet::fault::{ChurnStatus, FaultPlan};
    pub use bofl_fleet::generator::FleetSpec;
    pub use bofl_fleet::shard::ShardPlan;
}
