//! The simulation builder applies its settings in one fixed order,
//! whatever order they were called in. Two settings depend on another:
//! a chaos plan wraps the *final* transport, and the WAL attaches to the
//! plane the journal capacity builds. Calling either pair in both orders
//! must give the same bytes.

use std::path::PathBuf;

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

fn wal_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bofl-order-{}-{name}.wal", std::process::id()))
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

#[test]
fn the_wal_survives_a_journal_capacity_set_after_it() {
    let seed = 32;
    let (capacity_first, wal_first) = (wal_path("capacity-first"), wal_path("wal-first"));
    let a = builder(seed)
        .journal_capacity(64)
        .wal(&capacity_first)
        .build()
        .run();
    let b = builder(seed)
        .wal(&wal_first)
        .journal_capacity(64)
        .build()
        .run();
    let (a_bytes, b_bytes) = (
        std::fs::read(&capacity_first).unwrap(),
        std::fs::read(&wal_first).unwrap(),
    );
    std::fs::remove_file(&capacity_first).ok();
    std::fs::remove_file(&wal_first).ok();
    assert_eq!(a_bytes, b_bytes);
    assert_eq!(a.journal.to_jsonl(), b.journal.to_jsonl());
    // The ring is bounded, and the WAL holds more than the ring kept.
    assert_eq!(a.journal.len(), 64);
    assert!(a_bytes.len() > 64 * 8);
}
