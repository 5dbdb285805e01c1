//! The simulation builder applies its settings in one fixed order,
//! whatever order they were called in. A chaos plan wraps the *final*
//! transport, so calling `.chaos` and `.transport` in either order must
//! give the same bytes.

use bofl_control::prelude::*;
use bofl_fl::server::FederationConfig;

fn builder(seed: u64) -> ControlSimulationBuilder {
    ControlSimulation::builder(FleetSpec::mixed(12, seed))
        .federation(FederationConfig {
            clients_per_round: 5,
            rounds: 4,
            classes: 3,
            feature_dims: 6,
            seed,
            aggregation: AggregationPolicy::recovery(),
            ..FederationConfig::default()
        })
        .workers(2)
        .retry(RetryPolicy::recovery())
}

#[test]
fn chaos_wraps_the_final_transport_in_either_call_order() {
    let seed = 31;
    let plan = ChaosPlan::new(seed ^ 0xC4A0)
        .with_drops(0.2)
        .with_duplicates(0.2)
        .with_reordering(0.3, 8.0);
    let chaos_first = builder(seed)
        .chaos(plan)
        .transport(SocketTransport::in_process(2))
        .build()
        .run();
    let transport_first = builder(seed)
        .transport(SocketTransport::in_process(2))
        .chaos(plan)
        .build()
        .run();
    assert_eq!(
        chaos_first.journal.to_jsonl(),
        transport_first.journal.to_jsonl()
    );
    assert_eq!(chaos_first.closes, transport_first.closes);
    // The plan really ran in both orders: a transport set after the plan
    // did not replace its wrap.
    assert!(chaos_first.metrics.chaos_dropped() > 0);
}
