//! The one simulation builder for fleets of real clients: fleet
//! generator + event-driven engine + metrics + journal, so an experiment
//! is a dozen lines instead of a page of wiring.
//!
//! Without over-selection (the default
//! [`AggregationPolicy`](bofl_fl::server::AggregationPolicy)) the close
//! target is the whole cohort, so a run plays the barrier round,
//! journalled: a healthy run has the history of a `Federation` on the
//! default sequential engine. The federation configuration's aggregation
//! policy turns on over-selection and quorum closes.

use crate::chaos::{ChaosPlan, ChaosTransport};
use crate::engine::{worker_label, EventDrivenEngine, PlaneHandle};
use crate::journal::{EventCause, EventJournal, RoundClose};
use crate::liveness::LivenessPolicy;
use crate::plane::{ControlPlane, ResumeReport};
use crate::transport::{Transport, VirtualTransport};
use crate::wal::JournalWal;
use bofl::task::PaceController;
use bofl_fl::network::RetryPolicy;
use bofl_fl::server::{Federation, FederationConfig, RunHistory};
use bofl_fleet::compress::Compressor;
use bofl_fleet::fault::FaultPlan;
use bofl_fleet::generator::FleetSpec;
use bofl_fleet::metrics::FleetMetrics;
use bofl_fleet::shard::ShardPlan;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A ready-to-run event-driven fleet simulation. Build one with
/// [`ControlSimulation::builder`].
pub struct ControlSimulation {
    federation: Federation,
    plane: PlaneHandle,
    rounds: usize,
    next_round: usize,
    resume_report: Option<ResumeReport>,
}

impl std::fmt::Debug for ControlSimulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlSimulation")
            .field("clients", &self.federation.num_clients())
            .field("rounds", &self.rounds)
            .field("engine", &self.federation.engine_label())
            .finish()
    }
}

impl ControlSimulation {
    /// Starts building a simulation over the given fleet.
    pub fn builder(spec: FleetSpec) -> ControlSimulationBuilder {
        let config = FederationConfig {
            num_clients: spec.num_clients,
            seed: spec.seed,
            ..FederationConfig::default()
        };
        ControlSimulationBuilder {
            spec,
            config,
            controller_factory: None,
            engine: EventDrivenEngine::new(1),
            chaos: ChaosPlan::none(),
            wal_path: None,
            resume_path: None,
        }
    }

    /// Runs every remaining round (all of them on a fresh build; the
    /// uncommitted tail on a resumed one), collecting fleet metrics and
    /// annotating each round's churn, chaos, and liveness counts from the
    /// event journal and the transport's wire statistics.
    pub fn run(&mut self) -> ControlRunReport {
        self.run_rounds(self.rounds - self.next_round.min(self.rounds))
    }

    /// Runs at most `n` further rounds (stopping at the configured round
    /// count) and reports on the run so far. Calling this repeatedly is
    /// how the kill-and-resume tests stage a "crash" between rounds: run
    /// a prefix, drop the simulation, resume from the WAL.
    pub fn run_rounds(&mut self, n: usize) -> ControlRunReport {
        let mut metrics = FleetMetrics::new();
        let end = self.rounds.min(self.next_round + n);
        let mut rounds = Vec::with_capacity(end.saturating_sub(self.next_round));
        for round in self.next_round..end {
            let (record, outcomes) = self.federation.run_round_detailed(round);
            let stats = metrics.record(&record, &outcomes);
            let plane = self.plane.lock().expect("control plane poisoned");
            let causes = plane.journal().cause_counts(round as u32);
            stats.churn_arrivals = causes[EventCause::ChurnArrival];
            stats.churn_departures = causes[EventCause::ChurnDeparture];
            stats.suspected = causes[EventCause::LivenessSuspect];
            stats.expired = causes[EventCause::LivenessExpired];
            stats.healed = causes[EventCause::LivenessHeal];
            if let Some(wire) = plane.wire_stats(round) {
                stats.chaos_dropped = wire.dropped;
                stats.chaos_delayed = wire.delayed;
                stats.chaos_duplicated = wire.duplicated;
                stats.chaos_reordered = wire.reordered;
                stats.chaos_partition_held = wire.partition_held;
                stats.wire_bytes = wire.bytes_on_wire;
                stats.wire_raw_bytes = wire.bytes_raw;
            }
            if let Some(close) = plane.closes().iter().find(|c| c.round == round as u32) {
                stats.shards = close.shards;
                stats.shard_shortfalls = close.shard_shortfalls;
            }
            rounds.push(record);
        }
        self.next_round = end;
        let plane = self.plane.lock().expect("control plane poisoned");
        ControlRunReport {
            history: RunHistory { rounds },
            metrics,
            journal: plane.journal().clone(),
            closes: plane.closes().to_vec(),
        }
    }

    /// The next round [`ControlSimulation::run`] would execute (nonzero
    /// on a freshly resumed simulation).
    pub fn next_round(&self) -> usize {
        self.next_round
    }

    /// What the WAL resume reconstructed, if this simulation was built
    /// with [`ControlSimulationBuilder::resume_from_wal`].
    pub fn resume_report(&self) -> Option<&ResumeReport> {
        self.resume_report.as_ref()
    }

    /// The underlying federation (e.g. for inspecting clients).
    pub fn federation(&self) -> &Federation {
        &self.federation
    }

    /// A live handle onto the engine's control plane.
    pub fn plane(&self) -> PlaneHandle {
        PlaneHandle::clone(&self.plane)
    }
}

/// What an event-driven run produces: FedAvg history, fleet metrics, the
/// event journal, and every round-close record.
#[derive(Debug, Clone)]
pub struct ControlRunReport {
    /// Per-round FedAvg records (selection, accuracy, energy).
    pub history: RunHistory,
    /// Per-round fleet distributions, fault counts and churn annotations.
    pub metrics: FleetMetrics,
    /// The event journal at the end of the run.
    pub journal: EventJournal,
    /// How each round closed (quorum bookkeeping).
    pub closes: Vec<RoundClose>,
}

impl ControlRunReport {
    /// Total fleet energy, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.history.total_energy_j()
    }

    /// Final global-model test accuracy.
    pub fn final_accuracy(&self) -> f64 {
        self.history.final_accuracy()
    }

    /// Rounds that closed early on their quorum target.
    pub fn early_closes(&self) -> usize {
        self.closes.iter().filter(|c| c.closed_early).count()
    }

    /// Writes the run's artifacts into `dir`: `metrics.csv` (fleet
    /// metrics with churn columns), `journal.csv` and `journal.jsonl`
    /// (the event journal).
    pub fn write_artifacts(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        self.metrics.write_csv(&dir.join("metrics.csv"))?;
        self.journal.write_csv(&dir.join("journal.csv"))?;
        self.journal.write_jsonl(&dir.join("journal.jsonl"))
    }
}

/// A per-client pace-controller factory: client id → controller.
type ControllerFactory = Box<dyn Fn(usize) -> Box<dyn PaceController>>;

/// Builder for [`ControlSimulation`].
pub struct ControlSimulationBuilder {
    spec: FleetSpec,
    config: FederationConfig,
    controller_factory: Option<ControllerFactory>,
    /// Every engine setting but the three below takes effect when set.
    engine: EventDrivenEngine,
    /// `build` applies these in a fixed order, whatever order they were
    /// set in: the chaos plan wraps the final transport, and the WAL
    /// attaches to (or the resume replaces) the plane.
    chaos: ChaosPlan,
    wal_path: Option<PathBuf>,
    resume_path: Option<PathBuf>,
}

impl std::fmt::Debug for ControlSimulationBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlSimulationBuilder")
            .field("spec", &self.spec)
            .field("workers", &self.engine.workers)
            .finish()
    }
}

impl ControlSimulationBuilder {
    /// Overrides the federation configuration. `num_clients` is forced to
    /// the fleet spec's population size. The configuration's
    /// [`bofl_fl::server::AggregationPolicy`] doubles as the engine's
    /// round-close policy.
    #[must_use]
    pub fn federation(mut self, config: FederationConfig) -> Self {
        self.config = FederationConfig {
            num_clients: self.spec.num_clients,
            ..config
        };
        self
    }

    /// Sets the worker-thread count (default 1 = sequential).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        let workers = workers.max(1);
        self.engine.workers = workers;
        self.engine.label = worker_label(workers);
        self
    }

    /// Attaches a fault-injection plan (churn included).
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.engine.faults = faults;
        self
    }

    /// Attaches an upload retry policy (defaults to
    /// [`RetryPolicy::none`]).
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.engine.retry = retry;
        self
    }

    /// Sets the per-client pace-controller factory (client id →
    /// controller; defaults to the Performant baseline).
    #[must_use]
    pub fn controller_factory(
        mut self,
        f: impl Fn(usize) -> Box<dyn PaceController> + 'static,
    ) -> Self {
        self.controller_factory = Some(Box::new(f));
        self
    }

    /// Replaces the delivery transport (default
    /// [`crate::transport::VirtualTransport`]).
    #[must_use]
    pub fn transport(mut self, transport: impl Transport + 'static) -> Self {
        self.engine.transport = Box::new(transport);
        self
    }

    /// Wraps the transport in a [`crate::chaos::ChaosTransport`]
    /// injecting the given plan (no-op for an empty plan).
    #[must_use]
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// Arms server-side liveness tracking (off by default).
    #[must_use]
    pub fn liveness(mut self, liveness: LivenessPolicy) -> Self {
        self.engine.liveness = liveness;
        self
    }

    /// Arms hierarchical shard accounting: the round's runnable cohort is
    /// partitioned by `plan` into contiguous id-ordered shards, each
    /// closing against a local quorum of `ceil(members ×
    /// quorum_fraction)`. Every member of a shard that falls short resets
    /// with [`EventCause::ShardQuorumShortfall`] instead of `RoundReset`;
    /// no accepted update is discarded. Shard counts and shortfalls
    /// surface in the round-close records and the metrics CSV.
    ///
    /// # Panics
    ///
    /// Panics if `quorum_fraction` is outside `[0, 1]`.
    #[must_use]
    pub fn shard_plan(mut self, plan: ShardPlan, quorum_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&quorum_fraction),
            "shard quorum fraction must be in [0, 1]"
        );
        self.engine.shard_plan = Some(plan);
        self.engine.shard_quorum_fraction = quorum_fraction;
        self
    }

    /// Arms an uplink compressor: every finished update is encoded with
    /// a per-`(round, client)` stream seed derived from the federation
    /// seed and decoded back in place, so aggregation sees exactly the
    /// lossy bytes the wire carried; a per-client residual carries what
    /// each encoding could not express into the next round.
    /// Compressed/raw byte counts surface in the wire statistics and the
    /// metrics CSV.
    #[must_use]
    pub fn compressor(mut self, compressor: impl Compressor + 'static) -> Self {
        self.engine.compressor = Some(Box::new(compressor));
        self
    }

    /// Arms the crash-safety write-ahead log at `path` (truncating any
    /// existing file): every journalled transition and round close is
    /// written there before the engine proceeds, and each round is
    /// durable once its close is (the group-commit contract in
    /// [`crate::wal`]), so a killed coordinator can be revived with
    /// [`ControlSimulationBuilder::resume_from_wal`].
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be created — a run that silently loses
    /// its crash safety is worse than one that fails to start.
    #[must_use]
    pub fn wal(mut self, path: impl Into<PathBuf>) -> Self {
        self.wal_path = Some(path.into());
        self.resume_path = None;
        self
    }

    /// Resumes a crashed run from the write-ahead log at `path`: the
    /// plane is rebuilt from the committed prefix (torn tails and the
    /// uncommitted in-flight round are truncated away), the engine's
    /// virtual clock restarts at the commit point, and
    /// [`ControlSimulation::run`] continues from the first uncommitted
    /// round — appending to the same WAL.
    ///
    /// # Panics
    ///
    /// Panics if the log cannot be read or its committed prefix
    /// contradicts the transition contract (see
    /// [`crate::plane::ResumeError`]).
    #[must_use]
    pub fn resume_from_wal(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_path = Some(path.into());
        self.wal_path = None;
        self
    }

    /// Builds the simulation.
    pub fn build(self) -> ControlSimulation {
        let spec = self.spec;
        let mut engine = self
            .engine
            .with_close_policy(self.config.aggregation, self.config.clients_per_round);
        engine.compress_seed = self.config.seed;
        if !self.chaos.is_none() {
            let inner = std::mem::replace(&mut engine.transport, Box::new(VirtualTransport));
            engine.transport = Box::new(ChaosTransport::new(inner, self.chaos));
        }
        // WAL/resume wiring comes last: the WAL attaches to the engine's
        // plane, or the resumed plane replaces it.
        let mut next_round = 0usize;
        let mut resume_report = None;
        if let Some(path) = &self.resume_path {
            let (plane, report) = ControlPlane::resume(path, spec.num_clients)
                .unwrap_or_else(|e| panic!("cannot resume from WAL {}: {e}", path.display()));
            // The resumed run continues from the round after the last
            // committed close, on the virtual clock of that commit point.
            // Over-selection escalation is re-armed from that close: a
            // live run sets it to the close's `degraded` flag, and the
            // flag is only consulted with liveness armed.
            next_round = report.next_round;
            engine.escalated = plane.closes().last().is_some_and(|c| c.degraded);
            engine.plane = Arc::new(Mutex::new(plane));
            engine.now_s = report.now_s;
            resume_report = Some(report);
        } else if let Some(path) = &self.wal_path {
            let wal = JournalWal::create(path)
                .unwrap_or_else(|e| panic!("cannot create WAL {}: {e}", path.display()));
            engine
                .plane
                .lock()
                .expect("control plane poisoned")
                .attach_wal(Arc::new(Mutex::new(wal)));
        }
        let plane = engine.plane();
        let rounds = self.config.rounds;
        let mut builder = Federation::builder(self.config)
            .device_factory(move |id| spec.device(id))
            .engine(engine);
        if let Some(f) = self.controller_factory {
            builder = builder.controller_factory(f);
        }
        let mut federation = builder.build();
        // The server's selection RNG is threaded across rounds; replay
        // the committed rounds' draws so the resumed run selects the
        // cohorts the crashed run would have.
        for round in 0..next_round {
            federation.skip_round_draws(round);
        }
        ControlSimulation {
            federation,
            plane,
            rounds,
            next_round,
            resume_report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> FleetSpec {
        FleetSpec::mixed(6, 21)
    }

    fn quick_config() -> FederationConfig {
        FederationConfig {
            clients_per_round: 3,
            rounds: 3,
            classes: 3,
            feature_dims: 6,
            seed: 21,
            ..FederationConfig::default()
        }
    }

    #[test]
    fn simulation_runs_and_journals() {
        let mut sim = ControlSimulation::builder(quick_spec())
            .federation(quick_config())
            .workers(2)
            .build();
        let report = sim.run();
        assert_eq!(report.history.rounds.len(), 3);
        assert_eq!(report.closes.len(), 3);
        assert!(report.total_energy_j() > 0.0);
        // 3 selected clients × (select + start + finish + accept + reset)
        // per healthy round = 15 events/round minimum.
        assert!(report.journal.len() >= 45);
    }

    /// Without over-selection a healthy run plays the barrier round: the
    /// same history and metrics CSV as a `Federation` on the default
    /// `SequentialEngine`, with nothing landing late and no round closing
    /// early. The faulted case is `recovery_event_driven`'s
    /// `no_over_selection_matches_the_barrier_engine_trace`.
    #[test]
    fn healthy_runs_match_the_barrier_fleet_history() {
        let spec = quick_spec();
        let config = quick_config();
        let event = ControlSimulation::builder(spec)
            .federation(config)
            .workers(2)
            .build()
            .run();

        let mut barrier = Federation::builder(FederationConfig {
            num_clients: spec.num_clients,
            ..config
        })
        .device_factory(move |id| spec.device(id))
        .build();
        let mut metrics = FleetMetrics::new();
        let mut history = Vec::new();
        for round in 0..config.rounds {
            let (record, outcomes) = barrier.run_round_detailed(round);
            metrics.record(&record, &outcomes);
            history.push(record);
        }

        assert_eq!(event.history.rounds, history);
        assert_eq!(event.metrics.to_csv(), metrics.to_csv());
        assert!(event
            .journal
            .iter()
            .all(|e| e.cause != crate::journal::EventCause::RoundClosed));
        assert_eq!(event.early_closes(), 0);
    }

    #[test]
    fn simulation_runs_and_reports() {
        let mut sim = ControlSimulation::builder(quick_spec())
            .federation(quick_config())
            .workers(2)
            .build();
        let report = sim.run();
        assert_eq!(report.history.rounds.len(), 3);
        assert_eq!(report.metrics.rounds().len(), 3);
        assert!(report.total_energy_j() > 0.0);
        let csv = report.metrics.to_csv();
        assert_eq!(csv.trim_end().lines().count(), 4);
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let run = |workers: usize| {
            ControlSimulation::builder(quick_spec())
                .federation(quick_config())
                .workers(workers)
                .build()
                .run()
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.history, par.history);
        assert_eq!(seq.metrics, par.metrics);
        assert_eq!(seq.closes, par.closes);
        assert_eq!(seq.journal.to_csv(), par.journal.to_csv());
        assert_eq!(seq.metrics.to_csv(), par.metrics.to_csv());
    }

    #[test]
    fn fault_plan_reaches_the_engine() {
        let mut sim = ControlSimulation::builder(quick_spec())
            .federation(quick_config())
            .workers(2)
            .faults(FaultPlan::new(3).with_dropout(1.0))
            .build();
        let report = sim.run();
        // Everyone trains, nobody's update arrives.
        assert!(report
            .history
            .rounds
            .iter()
            .all(|r| r.aggregated.is_empty()));
        assert!(report.total_energy_j() > 0.0);
    }

    #[test]
    fn artifacts_land_on_disk() {
        let mut sim = ControlSimulation::builder(quick_spec())
            .federation(quick_config())
            .build();
        let report = sim.run();
        let dir = std::env::temp_dir().join(format!("bofl-control-sim-{}", std::process::id()));
        report.write_artifacts(&dir).unwrap();
        let journal = std::fs::read_to_string(dir.join("journal.csv")).unwrap();
        assert!(journal.starts_with("seq,round,client,from,to,cause,t_s\n"));
        let metrics = std::fs::read_to_string(dir.join("metrics.csv")).unwrap();
        assert!(metrics.contains("churn_arrivals"));
        assert!(dir.join("journal.jsonl").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
