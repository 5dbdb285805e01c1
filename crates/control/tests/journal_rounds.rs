//! Journalled rounds never decrease, entry by entry, in a live run and in
//! a run resumed from its WAL. `EventJournal::cause_counts` relies on it
//! to stop its backward scan at the first entry of an earlier round, so
//! each run also checks it against a count over the whole ring.

use bofl_control::prelude::*;
use bofl_fl::server::FederationConfig;

const ROUNDS: usize = 8;

/// Churn, chaos and liveness together: every source of events outside
/// the selected cohort or after a round's close.
fn builder(seed: u64) -> ControlSimulationBuilder {
    let faults = FaultPlan::new(seed ^ 0xFA17)
        .with_dropout(0.1)
        .with_stragglers(0.2, (1.5, 2.5))
        .with_upload_failures(0.1)
        .with_churn(0.15, 2);
    let chaos = ChaosPlan::new(seed ^ 0xC4A0)
        .with_drops(0.15)
        .with_delays(0.3, NetworkModel::wifi(), 2e5)
        .with_duplicates(0.1)
        .with_reordering(0.2, 8.0)
        .with_partitions(0.15, (10.0, 400.0));
    ControlSimulation::builder(FleetSpec::mixed(16, seed))
        .federation(FederationConfig {
            clients_per_round: 6,
            rounds: ROUNDS,
            classes: 3,
            feature_dims: 6,
            seed,
            aggregation: AggregationPolicy::recovery(),
            ..FederationConfig::default()
        })
        .workers(2)
        .faults(faults)
        .retry(RetryPolicy::recovery())
        .chaos(chaos)
        .liveness(LivenessPolicy::recovery(seed ^ 0x11FE))
}

/// Asserts the order, and `cause_counts` against a full count.
fn assert_rounds_in_order(journal: &EventJournal) {
    let entries: Vec<&EventEntry> = journal.iter().collect();
    for pair in entries.windows(2) {
        assert!(pair[0].round <= pair[1].round, "seq {}", pair[1].seq);
    }
    for round in 0..=ROUNDS as u32 {
        let counts = journal.cause_counts(round);
        for cause in EventCause::ALL {
            let held = entries
                .iter()
                .filter(|e| (e.round, e.cause) == (round, cause));
            assert_eq!(counts[cause], held.count(), "round {round}, {cause}");
        }
    }
}

#[test]
fn journalled_rounds_never_decrease() {
    let journal = builder(41).build().run().journal;
    for cause in [
        EventCause::ChurnDeparture,
        EventCause::ChurnArrival,
        EventCause::LivenessSuspect,
        EventCause::LivenessExpired,
        EventCause::TransportLoss,
    ] {
        assert!(journal.iter().any(|e| e.cause == cause), "no {cause}");
    }
    assert_rounds_in_order(&journal);
}

#[test]
fn a_resumed_run_journals_its_rounds_in_order() {
    let path = std::env::temp_dir().join(format!("bofl-rounds-{}.wal", std::process::id()));
    builder(43).wal(&path).build().run_rounds(3);
    let mut resumed = builder(43).resume_from_wal(&path).build();
    assert_eq!(resumed.next_round(), 3);
    let journal = resumed.run().journal;
    std::fs::remove_file(&path).ok();
    assert_eq!(
        journal.iter().last().map(|e| e.round),
        Some(ROUNDS as u32 - 1)
    );
    assert_rounds_in_order(&journal);
}
