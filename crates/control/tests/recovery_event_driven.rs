//! The fault-recovery acceptance suite: with the recovery stack enabled
//! (quorum + over-selection, upload retry with deterministic backoff, and
//! mid-round guardian escalation) a faulted fleet must make strictly more
//! progress than the same fleet without it — lower deadline-miss rate,
//! more aggregated updates per round, fewer wasted (zero-update) rounds —
//! and every recovery action must be visible in the fleet metrics CSV and
//! the journal. Rounds close on quorum events instead of a barrier join,
//! and mid-round churn is an ordinary lifecycle event; without
//! over-selection the run is pinned to a recorded barrier-engine trace.

mod common;

use bofl::exploit::ExploitParams;
use bofl_control::prelude::*;
use bofl_fl::server::FederationConfig;
use common::{federation_config, oracle_sim, reference_faults};

/// The headline acceptance check: on the same fleet seed and the same
/// fault plan, the recovery configuration achieves a strictly lower
/// deadline-miss rate AND strictly more aggregated updates per round than
/// the no-recovery baseline.
#[test]
fn event_driven_recovery_beats_no_recovery_baseline() {
    let seed = 33;
    let spec = FleetSpec::mixed(8, seed);

    let no_escalation = ExploitParams {
        escalation_enabled: false,
        ..ExploitParams::default()
    };
    let baseline = oracle_sim(
        spec,
        seed,
        AggregationPolicy::none(),
        RetryPolicy::none(),
        no_escalation,
    )
    .run();
    let recovered = oracle_sim(
        spec,
        seed,
        AggregationPolicy::recovery(),
        RetryPolicy::recovery(),
        ExploitParams::default(),
    )
    .run();

    let base_miss = baseline.metrics.mean_miss_rate();
    let rec_miss = recovered.metrics.mean_miss_rate();
    assert!(
        rec_miss < base_miss,
        "recovery must strictly lower the deadline-miss rate: {rec_miss:.3} vs {base_miss:.3}"
    );

    let base_agg = baseline.metrics.mean_aggregated_per_round();
    let rec_agg = recovered.metrics.mean_aggregated_per_round();
    assert!(
        rec_agg > base_agg,
        "recovery must strictly raise aggregated updates per round: {rec_agg:.2} vs {base_agg:.2}"
    );

    // The recovery machinery fired, and the journal shows it as ordinary
    // transitions — escalation and retried deliveries both present.
    assert!(recovered.metrics.escalated_jobs() > 0);
    assert!(recovered
        .journal
        .iter()
        .any(|e| e.cause == EventCause::GuardianEscalation));
    assert!(recovered
        .journal
        .iter()
        .any(|e| e.cause == EventCause::UploadRecovered));
    // Every round records its close, and the quorum bar matches policy.
    assert_eq!(recovered.closes.len(), 10);
    assert!(recovered.closes.iter().all(|c| c.quorum == 2));
}

/// Under the reference fault plan, the quorum + over-selection + retry
/// policy strictly lowers the number of *wasted* rounds (zero aggregated
/// updates) relative to the default policy.
#[test]
fn quorum_policy_lowers_wasted_round_count() {
    let seed = 71;
    let spec = FleetSpec::uniform_agx(8, seed);
    let run = |aggregation: AggregationPolicy, retry: RetryPolicy| {
        ControlSimulation::builder(spec)
            .federation(FederationConfig {
                clients_per_round: 2,
                rounds: 20,
                classes: 3,
                feature_dims: 6,
                seed,
                aggregation,
                ..FederationConfig::default()
            })
            .faults(reference_faults(seed ^ 0xFA17))
            .retry(retry)
            .build()
            .run()
    };
    let baseline = run(AggregationPolicy::default(), RetryPolicy::none());
    let recovered = run(
        AggregationPolicy {
            quorum_fraction: 1.0,
            over_select_fraction: 1.0,
        },
        RetryPolicy::recovery(),
    );
    let base_wasted = baseline.metrics.wasted_rounds();
    let rec_wasted = recovered.metrics.wasted_rounds();
    assert!(
        rec_wasted < base_wasted,
        "quorum policy must strictly lower wasted rounds: {rec_wasted} vs {base_wasted}"
    );
    // Shortfall rounds are labeled, never silently frozen: whenever the
    // quorum was missed the record says so, and whatever updates did
    // arrive were still aggregated.
    for r in recovered.metrics.rounds() {
        assert_eq!(r.quorum, 2);
        assert_eq!(r.quorum_shortfall, r.quorum.saturating_sub(r.aggregated));
    }
}

/// Upload retries must rescue rounds on the reference plan and show up in
/// the metrics.
#[test]
fn retries_recover_uploads_on_the_reference_plan() {
    let seed = 5;
    let spec = FleetSpec::uniform_agx(10, seed);
    let run = |retry: RetryPolicy| {
        ControlSimulation::builder(spec)
            .federation(FederationConfig {
                clients_per_round: 5,
                rounds: 12,
                classes: 3,
                feature_dims: 6,
                seed,
                ..FederationConfig::default()
            })
            .faults(FaultPlan::new(seed ^ 0xFA17).with_upload_failures(0.4))
            .retry(retry)
            .build()
            .run()
    };
    let baseline = run(RetryPolicy::none());
    let recovered = run(RetryPolicy::recovery());
    assert!(recovered.metrics.recovered_uploads() > 0);
    let base_failures: usize = baseline
        .metrics
        .rounds()
        .iter()
        .map(|r| r.upload_failures)
        .sum();
    let rec_failures: usize = recovered
        .metrics
        .rounds()
        .iter()
        .map(|r| r.upload_failures)
        .sum();
    assert!(
        rec_failures < base_failures,
        "retries must strictly lower delivered-upload losses: {rec_failures} vs {base_failures}"
    );
}

/// An elevated fault plan (dropout + heavy stragglers + lossy uplink)
/// across more rounds: the fleet keeps making progress, every recovery
/// channel fires, and the trace stays independent of the worker count.
#[test]
fn recovery_stack_survives_elevated_faults() {
    let seed = 97;
    let spec = FleetSpec::mixed(12, seed);
    let faults = FaultPlan::new(seed ^ 0xFA17)
        .with_dropout(0.2)
        .with_stragglers(0.5, (2.0, 6.0))
        .with_upload_failures(0.3);
    let run = |workers: usize| {
        ControlSimulation::builder(spec)
            .federation(FederationConfig {
                clients_per_round: 6,
                rounds: 15,
                classes: 3,
                feature_dims: 6,
                seed,
                aggregation: AggregationPolicy::recovery(),
                ..FederationConfig::default()
            })
            .workers(workers)
            .faults(faults)
            .retry(RetryPolicy::recovery())
            .build()
            .run()
    };
    let report = run(1);
    // Even under heavy fire the fleet keeps making progress…
    assert!(report.metrics.mean_aggregated_per_round() > 1.0);
    // …every recovery channel fires…
    assert!(report.metrics.recovered_uploads() > 0);
    assert!(report.metrics.quorum_shortfall_rounds() > 0);
    // …and the trace stays deterministic across worker counts.
    let parallel = run(8);
    assert_eq!(report.history, parallel.history);
    assert_eq!(report.metrics.to_csv(), parallel.metrics.to_csv());
}

/// The no-faults path is bit-identical with and without the recovery
/// machinery armed, proving the recovery layer is pay-for-use (retry
/// policies and quorum checks never perturb a healthy fleet).
#[test]
fn recovery_machinery_is_inert_on_healthy_fleets() {
    let seed = 123;
    let spec = FleetSpec::mixed(10, seed);
    let run = |retry: RetryPolicy| {
        ControlSimulation::builder(spec)
            .federation(federation_config(seed, AggregationPolicy::none()))
            .workers(4)
            .retry(retry)
            .build()
            .run()
    };
    let plain = run(RetryPolicy::none());
    let armed = run(RetryPolicy::recovery());
    assert_eq!(plain.history, armed.history);
    assert_eq!(plain.metrics.to_csv(), armed.metrics.to_csv());
}

/// Without over-selection the event-driven engine degenerates to the
/// barrier join: under the reference faults with retries, the barrier
/// engine's recorded metrics CSV and per-round selected and aggregated
/// ids (`tests/data/barrier_faulted_*`), nothing late, no early close.
/// The healthy case is `sim::tests::healthy_runs_match_the_barrier_fleet_history`.
#[test]
fn no_over_selection_matches_the_barrier_engine_trace() {
    let spec = FleetSpec::mixed(8, 19);
    let config = federation_config(19, AggregationPolicy::none());
    let event = ControlSimulation::builder(spec)
        .federation(config)
        .workers(4)
        .faults(reference_faults(19 ^ 0xFA17))
        .retry(RetryPolicy::recovery())
        .build()
        .run();

    assert_eq!(
        event.metrics.to_csv(),
        include_str!("data/barrier_faulted_metrics.csv")
    );
    let rounds: String = event
        .history
        .rounds
        .iter()
        .map(|r| format!("{} {:?} {:?}\n", r.round, r.selected, r.aggregated))
        .collect();
    assert_eq!(rounds, include_str!("data/barrier_faulted_rounds.txt"));
    assert!(event
        .journal
        .iter()
        .all(|e| e.cause != EventCause::RoundClosed));
    assert_eq!(event.early_closes(), 0);
}

/// With aggressive over-selection, rounds actually close early on their
/// quorum of first deliveries, and late arrivals are journalled as
/// `round_closed` drops instead of silently aggregated.
#[test]
fn over_selection_closes_rounds_early() {
    let seed = 45;
    let spec = FleetSpec::mixed(12, seed);
    let report = ControlSimulation::builder(spec)
        .federation(federation_config(
            seed,
            AggregationPolicy {
                quorum_fraction: 0.5,
                over_select_fraction: 1.0,
            },
        ))
        .workers(4)
        .faults(reference_faults(seed ^ 0xFA17))
        .retry(RetryPolicy::recovery())
        .build()
        .run();
    assert!(
        report.early_closes() > 0,
        "2× over-selection under the reference plan must close some round early"
    );
    let late: Vec<_> = report
        .journal
        .iter()
        .filter(|e| e.cause == EventCause::RoundClosed)
        .collect();
    assert!(!late.is_empty(), "early closes must strand late arrivals");
    // A late arrival is excluded from aggregation: its id never shows up
    // in the round's aggregated set.
    for e in &late {
        let round = &report.history.rounds[e.round as usize];
        assert!(!round.aggregated.contains(&(e.client as usize)));
    }
    // Closing early never starves a round below its nominal cohort: the
    // close target is the full cohort, so accepted ≥ cohort whenever a
    // round closed early.
    for c in report.closes.iter().filter(|c| c.closed_early) {
        assert!(c.accepted >= 4);
        assert!(c.quorum_met);
    }
}

/// Mid-round churn: clients join and leave the fleet while rounds are in
/// flight, every departure/arrival is journalled, and the run still
/// completes with quorum-closed rounds and a learning global model.
#[test]
fn churn_scenario_completes_with_quorum_closed_rounds() {
    let seed = 7;
    let spec = FleetSpec::mixed(12, seed);
    let mut sim = ControlSimulation::builder(spec)
        .federation(FederationConfig {
            clients_per_round: 4,
            rounds: 12,
            classes: 3,
            feature_dims: 6,
            seed,
            aggregation: AggregationPolicy::recovery(),
            ..FederationConfig::default()
        })
        .workers(4)
        .faults(reference_faults(seed ^ 0xFA17).with_churn(0.12, 2))
        .retry(RetryPolicy::recovery())
        .build();
    let report = sim.run();

    // The run completed every round and recorded every close.
    assert_eq!(report.history.rounds.len(), 12);
    assert_eq!(report.closes.len(), 12);

    // Churn actually happened, in both directions, and the journal and
    // the metrics CSV agree on the counts.
    let churn = |cause| -> usize { (0..12).map(|r| report.journal.cause_counts(r)[cause]).sum() };
    let departures = churn(EventCause::ChurnDeparture);
    let arrivals = churn(EventCause::ChurnArrival);
    assert!(departures > 0, "churn plan must produce departures");
    assert!(arrivals > 0, "absent clients must come back");
    assert_eq!(report.metrics.churn_departures(), departures);
    assert_eq!(report.metrics.churn_arrivals(), arrivals);
    let csv = report.metrics.to_csv();
    let header = csv.lines().next().unwrap();
    assert!(header.contains("churn_arrivals") && header.contains("churn_departures"));

    // Aggregation kept going despite the churn: most rounds met quorum.
    let met = report.closes.iter().filter(|c| c.quorum_met).count();
    assert!(met >= 8, "churned fleet met quorum only {met}/12 rounds");
    assert!(report.final_accuracy() > 0.0);
    assert!(report.total_energy_j() > 0.0);
}
