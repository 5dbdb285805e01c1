//! The event-driven engine must clear the same recovery acceptance bar
//! the barrier fleet engine does (see `bofl-fleet`'s `recovery` suite):
//! under the reference fault plan the recovery stack strictly beats the
//! no-recovery baseline — now with quorum-*closed* rounds instead of a
//! barrier join, and with mid-round churn as an ordinary lifecycle event.

use bofl::baselines::OracleController;
use bofl::exploit::ExploitParams;
use bofl_control::prelude::*;
use bofl_fl::server::FederationConfig;
use bofl_workload::{FlTask, TaskKind, Testbed};

/// The reference fault plan: 30% transient stragglers slowed 2–4×, 10%
/// of uploads lost.
fn reference_faults(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_stragglers(0.3, (2.0, 4.0))
        .with_upload_failures(0.1)
}

fn federation_config(seed: u64, aggregation: AggregationPolicy) -> FederationConfig {
    FederationConfig {
        clients_per_round: 4,
        rounds: 10,
        classes: 3,
        feature_dims: 6,
        seed,
        aggregation,
        ..FederationConfig::default()
    }
}

/// Every client runs the Oracle controller for its own device — the
/// deadline-filling posture that mid-round escalation rescues.
fn oracle_sim(
    spec: FleetSpec,
    seed: u64,
    aggregation: AggregationPolicy,
    retry: RetryPolicy,
    exploit: ExploitParams,
) -> ControlSimulation {
    ControlSimulation::builder(spec)
        .federation(federation_config(seed, aggregation))
        .faults(reference_faults(seed ^ 0xFA17))
        .retry(retry)
        .controller_factory(move |id| {
            let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
            let profile = spec.device(id).profile_all(&task);
            Box::new(OracleController::new(profile).with_params(exploit))
        })
        .build()
}

/// The acceptance check, ported verbatim onto the event-driven
/// engine: strictly lower miss rate AND strictly more aggregated updates
/// per round than the no-recovery baseline, on the same seed and plan.
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

/// Without over-selection the close target equals the cohort, so the
/// event-driven engine degenerates to the barrier join: same history as
/// `FleetEngine` on the same seed and faults, and nothing lands late.
#[test]
fn no_over_selection_matches_the_barrier_engine_trace() {
    use bofl_fleet::sim::FleetSimulation;
    let seed = 19;
    let spec = FleetSpec::mixed(8, seed);
    let config = federation_config(seed, AggregationPolicy::none());
    let event = ControlSimulation::builder(spec)
        .federation(config)
        .workers(4)
        .faults(reference_faults(seed ^ 0xFA17))
        .retry(RetryPolicy::recovery())
        .build()
        .run();
    let barrier = FleetSimulation::builder(spec)
        .federation(config)
        .workers(4)
        .faults(reference_faults(seed ^ 0xFA17))
        .retry(RetryPolicy::recovery())
        .build()
        .run();
    assert_eq!(event.history, barrier.history);
    assert_eq!(event.metrics.to_csv(), barrier.metrics.to_csv());
    assert!(event
        .journal
        .iter()
        .all(|e| e.cause != EventCause::RoundClosed));
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
    let departures: usize = (0..12).map(|r| report.journal.churn_counts(r).1).sum();
    let arrivals: usize = (0..12).map(|r| report.journal.churn_counts(r).0).sum();
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
