//! The high-level fleet simulation: generator + engine + metrics in one
//! builder, so an experiment is a dozen lines instead of a page of wiring.

use crate::engine::FleetEngine;
use crate::fault::FaultPlan;
use crate::generator::FleetSpec;
use crate::metrics::FleetMetrics;
use bofl::task::PaceController;
use bofl_fl::network::RetryPolicy;
use bofl_fl::server::{Federation, FederationConfig, RunHistory};

/// A ready-to-run fleet simulation. Build one with
/// [`FleetSimulation::builder`].
pub struct FleetSimulation {
    federation: Federation,
    rounds: usize,
}

impl std::fmt::Debug for FleetSimulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSimulation")
            .field("clients", &self.federation.num_clients())
            .field("rounds", &self.rounds)
            .field("engine", &self.federation.engine_label())
            .finish()
    }
}

impl FleetSimulation {
    /// Starts building a simulation over the given fleet.
    pub fn builder(spec: FleetSpec) -> FleetSimulationBuilder {
        let config = FederationConfig {
            num_clients: spec.num_clients,
            seed: spec.seed,
            ..FederationConfig::default()
        };
        FleetSimulationBuilder {
            spec,
            config,
            workers: 1,
            faults: FaultPlan::none(),
            retry: RetryPolicy::none(),
            controller_factory: None,
            shard_plan: crate::shard::ShardPlan::flat(),
        }
    }

    /// Runs all rounds, collecting fleet metrics as it goes.
    pub fn run(&mut self) -> FleetRunReport {
        let mut metrics = FleetMetrics::new();
        let mut rounds = Vec::with_capacity(self.rounds);
        for round in 0..self.rounds {
            let (record, outcomes) = self.federation.run_round_detailed(round);
            metrics.record(&record, &outcomes);
            rounds.push(record);
        }
        FleetRunReport {
            history: RunHistory { rounds },
            metrics,
        }
    }

    /// The underlying federation (e.g. for inspecting clients).
    pub fn federation(&self) -> &Federation {
        &self.federation
    }
}

/// What a fleet run produces: the FedAvg history plus fleet metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRunReport {
    /// Per-round FedAvg records (selection, accuracy, energy).
    pub history: RunHistory,
    /// Per-round fleet distributions, fault counts and phase occupancy.
    pub metrics: FleetMetrics,
}

impl FleetRunReport {
    /// Total fleet energy, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.history.total_energy_j()
    }

    /// Final global-model test accuracy.
    pub fn final_accuracy(&self) -> f64 {
        self.history.final_accuracy()
    }
}

/// A per-client pace-controller factory: client id → controller.
type ControllerFactory = Box<dyn Fn(usize) -> Box<dyn PaceController>>;

/// Builder for [`FleetSimulation`].
pub struct FleetSimulationBuilder {
    spec: FleetSpec,
    config: FederationConfig,
    workers: usize,
    faults: FaultPlan,
    retry: RetryPolicy,
    controller_factory: Option<ControllerFactory>,
    shard_plan: crate::shard::ShardPlan,
}

impl std::fmt::Debug for FleetSimulationBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSimulationBuilder")
            .field("spec", &self.spec)
            .field("workers", &self.workers)
            .finish()
    }
}

impl FleetSimulationBuilder {
    /// Overrides the federation configuration. `num_clients` is forced to
    /// the fleet spec's population size.
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
        self.workers = workers;
        self
    }

    /// Attaches a fault-injection plan.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches an upload retry policy (defaults to
    /// [`RetryPolicy::none`]).
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the server's aggregation shard plan (defaults to flat). Pure
    /// execution geometry: the run's history is identical at any shard
    /// count.
    #[must_use]
    pub fn shard_plan(mut self, plan: crate::shard::ShardPlan) -> Self {
        self.shard_plan = plan;
        self
    }

    /// Sets the per-client pace-controller factory (client id →
    /// controller; defaults to the federation's default, the Performant
    /// baseline).
    #[must_use]
    pub fn controller_factory(
        mut self,
        f: impl Fn(usize) -> Box<dyn PaceController> + 'static,
    ) -> Self {
        self.controller_factory = Some(Box::new(f));
        self
    }

    /// Builds the simulation.
    pub fn build(self) -> FleetSimulation {
        let spec = self.spec;
        let engine = FleetEngine::new(self.workers)
            .with_faults(self.faults)
            .with_retry(self.retry);
        let rounds = self.config.rounds;
        let mut builder = Federation::builder(self.config)
            .device_factory(move |id| spec.device(id))
            .shard_plan(self.shard_plan)
            .engine(engine);
        if let Some(f) = self.controller_factory {
            builder = builder.controller_factory(f);
        }
        FleetSimulation {
            federation: builder.build(),
            rounds,
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
    fn simulation_runs_and_reports() {
        let mut sim = FleetSimulation::builder(quick_spec())
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
            FleetSimulation::builder(quick_spec())
                .federation(quick_config())
                .workers(workers)
                .build()
                .run()
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq, par);
        assert_eq!(seq.metrics.to_csv(), par.metrics.to_csv());
    }

    #[test]
    fn fault_plan_reaches_the_engine() {
        let mut sim = FleetSimulation::builder(quick_spec())
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
}
