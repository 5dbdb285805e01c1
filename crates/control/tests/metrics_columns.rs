//! A full-CSV pin of the fleet metrics with every control-plane column
//! live: churn, chaos (drops, delays, duplicates, reordering,
//! partitions), liveness, shard quorums and a compressed uplink all armed
//! on one small event-driven run. `tests/data/annotated_metrics.csv` is
//! the recorded `to_csv()`; each of the 14 columns the control plane
//! fills is nonzero in at least one of its rows, so swapping two of them
//! (or filling one from the wrong source) changes the bytes.

use bofl_control::prelude::*;
use bofl_fl::server::FederationConfig;

const SEED: u64 = 29;

/// The columns filled from the control plane's journal, wire statistics
/// and round closes rather than from client outcomes.
const CONTROL_PLANE_COLUMNS: [&str; 14] = [
    "churn_arrivals",
    "churn_departures",
    "chaos_dropped",
    "chaos_delayed",
    "chaos_duplicated",
    "chaos_reordered",
    "chaos_partition_held",
    "suspected",
    "expired",
    "healed",
    "shards",
    "shard_shortfalls",
    "wire_bytes",
    "wire_raw_bytes",
];

fn run() -> ControlRunReport {
    ControlSimulation::builder(FleetSpec::mixed(16, SEED))
        .federation(FederationConfig {
            clients_per_round: 6,
            rounds: 8,
            classes: 3,
            feature_dims: 6,
            seed: SEED,
            aggregation: AggregationPolicy::recovery(),
            ..FederationConfig::default()
        })
        .workers(2)
        .faults(
            FaultPlan::new(SEED ^ 0xFA17)
                .with_dropout(0.1)
                .with_stragglers(0.2, (1.5, 3.0))
                .with_upload_failures(0.1)
                .with_churn(0.1, 2),
        )
        .retry(RetryPolicy::recovery())
        .chaos(
            ChaosPlan::new(SEED ^ 0xC4A0)
                .with_drops(0.1)
                .with_delays(0.3, NetworkModel::wifi(), 2e5)
                .with_duplicates(0.2)
                .with_reordering(0.3, 0.5)
                .with_partitions(0.15, (10.0, 400.0)),
        )
        .liveness(LivenessPolicy::recovery(SEED ^ 0x11FE))
        .shard_plan(ShardPlan::with_shards(3), 1.0)
        .compressor(Int8Quantizer)
        .build()
        .run()
}

#[test]
fn annotated_metrics_match_the_recorded_csv() {
    let csv = run().metrics.to_csv();
    assert_eq!(csv, include_str!("data/annotated_metrics.csv"));
}

#[test]
fn every_control_plane_column_is_exercised() {
    let csv = run().metrics.to_csv();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
    for column in CONTROL_PLANE_COLUMNS {
        let at = header
            .iter()
            .position(|&h| h == column)
            .unwrap_or_else(|| panic!("no `{column}` column"));
        assert!(
            rows.iter().any(|row| row[at] != "0"),
            "`{column}` is 0 in every row"
        );
    }
}
