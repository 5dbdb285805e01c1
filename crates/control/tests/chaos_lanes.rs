//! Every chaos family (drop, delay, duplicate, reorder, partition) plus
//! liveness over real TCP lanes. Chaos is drawn per `(round, client)`,
//! never per lane, so the lane count must not change a journalled byte.

use bofl_control::prelude::*;
use bofl_fl::server::FederationConfig;

fn run(lanes: usize) -> ControlRunReport {
    let seed = 2025;
    ControlSimulation::builder(FleetSpec::mixed(40, seed))
        .federation(FederationConfig {
            clients_per_round: 8,
            rounds: 10,
            deadline_ratio: 2.5,
            feature_dims: 8,
            classes: 4,
            seed,
            aggregation: AggregationPolicy::recovery(),
            ..FederationConfig::default()
        })
        .workers(4)
        .retry(RetryPolicy::recovery())
        .transport(SocketTransport::in_process(lanes))
        .chaos(
            ChaosPlan::new(seed ^ 0xC4A0)
                .with_drops(0.2)
                .with_delays(0.2, NetworkModel::lte(), 2.0e6)
                .with_duplicates(0.1)
                .with_reordering(0.3, 8.0)
                .with_partitions(0.15, (30.0, 600.0)),
        )
        .liveness(LivenessPolicy::recovery(seed))
        .build()
        .run()
}

#[test]
fn full_chaos_with_liveness_is_lane_count_invariant() {
    let (four, two) = (run(4), run(2));
    assert_eq!(four.journal.to_csv(), two.journal.to_csv());
    assert_eq!(four.closes, two.closes);
    // Hostile enough that the liveness machinery had work to do.
    assert!(four.metrics.chaos_dropped() > 0 && four.metrics.suspected() > 0);
}
