//! Fleet-scale simulation experiment (beyond the paper's testbed): a
//! heterogeneous AGX/TX2 population with fault injection, run on a worker
//! pool, with a determinism cross-check against a single-worker run.

use crate::report::{f, Report, Table};
use bofl_control::prelude::*;
use bofl_fl::server::FederationConfig;

use super::ExperimentScale;

/// Fleet population and round schedule for the experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FleetScale {
    /// Clients in the fleet.
    pub num_clients: usize,
    /// Clients selected per round.
    pub clients_per_round: usize,
    /// FL rounds.
    pub rounds: usize,
    /// Worker threads for the parallel run.
    pub workers: usize,
}

impl FleetScale {
    /// Derives a fleet scale from the experiment scale.
    pub(crate) fn from(scale: ExperimentScale) -> Self {
        if scale.rounds >= 100 {
            FleetScale {
                num_clients: 100,
                clients_per_round: 10,
                rounds: 20,
                workers: 4,
            }
        } else {
            FleetScale {
                num_clients: 40,
                clients_per_round: 6,
                rounds: 8,
                workers: 4,
            }
        }
    }
}

fn run(scale: FleetScale, workers: usize, seed: u64) -> ControlRunReport {
    let spec = FleetSpec::mixed(scale.num_clients, seed);
    ControlSimulation::builder(spec)
        .federation(FederationConfig {
            clients_per_round: scale.clients_per_round,
            rounds: scale.rounds,
            seed,
            ..FederationConfig::default()
        })
        .workers(workers)
        .faults(
            FaultPlan::new(seed ^ 0xFA17)
                .with_dropout(0.05)
                .with_stragglers(0.10, (1.5, 3.0))
                .with_upload_failures(0.03),
        )
        .build()
        .run()
}

/// Runs the fleet experiment and renders per-round fleet statistics plus
/// a sequential-vs-parallel determinism check.
pub fn figure(scale: ExperimentScale) -> Report {
    let fleet = FleetScale::from(scale);
    let seed = scale.deadline_seed;

    let parallel = run(fleet, fleet.workers, seed);
    let sequential = run(fleet, 1, seed);
    let identical = parallel.metrics.to_csv() == sequential.metrics.to_csv();

    let mut table = Table::new(
        "fleet_scale",
        &[
            "round",
            "selected",
            "aggregated",
            "deadline_s",
            "energy_total_j",
            "latency_p95_s",
            "miss_rate",
            "dropouts",
            "stragglers",
            "upload_failures",
            "test_accuracy",
        ],
    );
    for r in parallel.metrics.rounds() {
        table.push_row(vec![
            r.round.to_string(),
            r.selected.to_string(),
            r.aggregated.to_string(),
            f(r.deadline_s, 3),
            f(r.energy_j.sum, 1),
            f(r.latency_s.p95, 3),
            f(r.deadline_miss_rate, 3),
            r.dropouts.to_string(),
            r.stragglers.to_string(),
            r.upload_failures.to_string(),
            f(r.test_accuracy, 3),
        ]);
    }

    let mut summary = Table::new(
        "fleet_scale_summary",
        &[
            "clients",
            "rounds",
            "workers",
            "total_energy_j",
            "mean_miss_rate",
            "final_accuracy",
            "deterministic",
        ],
    );
    summary.push_row(vec![
        fleet.num_clients.to_string(),
        fleet.rounds.to_string(),
        fleet.workers.to_string(),
        f(parallel.total_energy_j(), 1),
        f(parallel.metrics.mean_miss_rate(), 3),
        f(parallel.final_accuracy(), 3),
        identical.to_string(),
    ]);

    let mut report = Report::new("Fleet-scale simulation");
    report.note(format!(
        "{} heterogeneous clients (mixed AGX/TX2), {} rounds, {} per round, fault injection on",
        fleet.num_clients, fleet.rounds, fleet.clients_per_round
    ));
    report.note(format!(
        "determinism check: parallel ({} workers) CSV {} sequential CSV",
        fleet.workers,
        if identical { "==" } else { "!= (BUG)" }
    ));
    report.push_table(table);
    report.push_table(summary);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_experiment_is_deterministic_and_complete() {
        let report = figure(ExperimentScale::quick());
        let summary = &report.tables[1];
        assert_eq!(summary.rows.len(), 1);
        let deterministic = summary.rows[0].last().expect("summary has columns");
        assert_eq!(deterministic, "true");
        // One row per round.
        assert_eq!(report.tables[0].rows.len(), 8);
    }
}
