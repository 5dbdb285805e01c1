//! Fault-injection behavior at the federation level: total dropout must
//! starve aggregation without hanging or panicking, and straggler
//! slowdowns must surface in the fleet metrics.

use bofl_control::prelude::*;
use bofl_fl::server::FederationConfig;

fn config(seed: u64) -> FederationConfig {
    FederationConfig {
        clients_per_round: 4,
        rounds: 4,
        classes: 3,
        feature_dims: 6,
        seed,
        ..FederationConfig::default()
    }
}

#[test]
fn total_dropout_terminates_with_no_aggregation() {
    let spec = FleetSpec::mixed(8, 13);
    let mut sim = ControlSimulation::builder(spec)
        .federation(config(13))
        .workers(4)
        .faults(FaultPlan::new(99).with_dropout(1.0))
        .build();
    let report = sim.run();

    // The run completes every configured round (no hang, no panic)...
    assert_eq!(report.history.rounds.len(), 4);
    // ...no update is ever aggregated, so the global model never moves...
    assert!(report
        .history
        .rounds
        .iter()
        .all(|r| r.aggregated.is_empty()));
    let accuracies: Vec<f64> = report
        .history
        .rounds
        .iter()
        .map(|r| r.test_accuracy)
        .collect();
    assert!(accuracies.windows(2).all(|w| w[0] == w[1]));
    // ...every selected client is reported dropped, and the wasted energy
    // is still accounted.
    for stats in report.metrics.rounds() {
        assert_eq!(stats.dropouts, stats.selected);
        assert_eq!(stats.aggregated, 0);
    }
    assert!(report.total_energy_j() > 0.0);
}

#[test]
fn guaranteed_stragglers_all_miss_their_deadlines() {
    // Homogeneous hardware: every client's T_min equals the round's
    // T_min, so a deadline of at most 2 × T_min cannot absorb a ≥3×
    // slowdown. (In a mixed fleet the deadline tracks the slowest board,
    // leaving fast boards enough slack to survive a slowdown.)
    let spec = FleetSpec::uniform_agx(8, 29);
    let mut sim = ControlSimulation::builder(spec)
        .federation(config(29))
        .workers(4)
        .faults(FaultPlan::new(7).with_stragglers(1.0, (3.0, 5.0)))
        .build();
    let report = sim.run();
    for stats in report.metrics.rounds() {
        assert_eq!(stats.stragglers, stats.selected, "100% straggler rounds");
        assert_eq!(stats.deadline_miss_rate, 1.0);
        assert_eq!(stats.aggregated, 0);
    }
}

#[test]
fn upload_failures_waste_finished_rounds() {
    let spec = FleetSpec::mixed(8, 31);
    let mut sim = ControlSimulation::builder(spec)
        .federation(config(31))
        .workers(2)
        .faults(FaultPlan::new(5).with_upload_failures(1.0))
        .build();
    let report = sim.run();
    for stats in report.metrics.rounds() {
        assert_eq!(stats.upload_failures, stats.selected);
        assert_eq!(stats.aggregated, 0);
        // Training itself succeeded — these are not deadline misses.
        assert_eq!(stats.deadline_miss_rate, 0.0);
    }
    assert!(report.total_energy_j() > 0.0);
}

#[test]
fn healthy_fleet_aggregates_everyone() {
    let spec = FleetSpec::mixed(8, 41);
    let mut sim = ControlSimulation::builder(spec)
        .federation(config(41))
        .workers(4)
        .build();
    let report = sim.run();
    for (r, stats) in report.history.rounds.iter().zip(report.metrics.rounds()) {
        assert_eq!(r.aggregated, r.selected);
        assert_eq!(stats.dropouts, 0);
        assert_eq!(stats.stragglers, 0);
        assert_eq!(stats.upload_failures, 0);
    }
}
