//! The fleet's headline guarantee: a fleet seed fully determines the
//! aggregate trace, independent of how many worker threads execute it.

use bofl_control::prelude::*;
use bofl_fl::server::FederationConfig;
use proptest::prelude::*;

fn run_fleet(seed: u64, workers: usize) -> ControlRunReport {
    let spec = FleetSpec::mixed(10, seed);
    ControlSimulation::builder(spec)
        .federation(FederationConfig {
            clients_per_round: 4,
            rounds: 3,
            classes: 3,
            feature_dims: 6,
            seed,
            ..FederationConfig::default()
        })
        .workers(workers)
        .faults(
            FaultPlan::new(seed ^ 0xFA17)
                .with_dropout(0.15)
                .with_stragglers(0.25, (1.5, 3.0))
                .with_upload_failures(0.1),
        )
        .build()
        .run()
}

/// Like [`run_fleet`], but with the full recovery stack enabled: quorum +
/// over-selection, retried uploads with backoff, and the same fault plan.
fn run_fleet_recovering(seed: u64, workers: usize) -> ControlRunReport {
    let spec = FleetSpec::mixed(10, seed);
    ControlSimulation::builder(spec)
        .federation(FederationConfig {
            clients_per_round: 4,
            rounds: 3,
            classes: 3,
            feature_dims: 6,
            seed,
            aggregation: AggregationPolicy::recovery(),
            ..FederationConfig::default()
        })
        .workers(workers)
        .faults(
            FaultPlan::new(seed ^ 0xFA17)
                .with_dropout(0.15)
                .with_stragglers(0.25, (1.5, 3.0))
                .with_upload_failures(0.1),
        )
        .retry(RetryPolicy::recovery())
        .build()
        .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same fleet seed, 1 worker vs 8 workers: identical per-round
    /// reports, identical fleet metrics, byte-identical CSV.
    #[test]
    fn trace_is_independent_of_worker_count(seed in 0u64..1_000_000) {
        let sequential = run_fleet(seed, 1);
        let parallel = run_fleet(seed, 8);
        prop_assert_eq!(&sequential.history, &parallel.history);
        prop_assert_eq!(&sequential.metrics, &parallel.metrics);
        prop_assert_eq!(sequential.metrics.to_csv(), parallel.metrics.to_csv());
    }

    /// The recovery stack (quorum aggregation, over-selection, retried
    /// uploads with seeded backoff) must preserve the same guarantee:
    /// retries are pure in (round, client, attempt), never in scheduling.
    #[test]
    fn recovery_trace_is_independent_of_worker_count(seed in 0u64..1_000_000) {
        let sequential = run_fleet_recovering(seed, 1);
        let parallel = run_fleet_recovering(seed, 8);
        prop_assert_eq!(&sequential.history, &parallel.history);
        prop_assert_eq!(&sequential.metrics, &parallel.metrics);
        prop_assert_eq!(sequential.metrics.to_csv(), parallel.metrics.to_csv());
    }
}

#[test]
fn different_seeds_diverge() {
    // Sanity against a trivially-constant trace: determinism must come
    // from the seed, not from the simulation ignoring it.
    let a = run_fleet(1, 4);
    let b = run_fleet(2, 4);
    assert_ne!(a.history, b.history);
}

#[test]
fn repeated_runs_are_reproducible() {
    let first = run_fleet(77, 4);
    let second = run_fleet(77, 4);
    assert_eq!(first.history, second.history);
    assert_eq!(first.metrics, second.metrics);
    assert_eq!(first.closes, second.closes);
    assert_eq!(first.journal.to_csv(), second.journal.to_csv());
    assert_eq!(first.metrics.to_csv(), second.metrics.to_csv());
}
