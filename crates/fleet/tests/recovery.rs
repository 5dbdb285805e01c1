//! The fault-recovery acceptance suite: with the recovery stack enabled
//! (quorum + over-selection, upload retry with deterministic backoff, and
//! mid-round guardian escalation) a faulted fleet must make strictly more
//! progress than the same fleet without it — lower deadline-miss rate,
//! more aggregated updates per round, fewer wasted (zero-update) rounds —
//! and every recovery action must be visible in the fleet metrics CSV.
//!
//! Tests marked `stress` run an elevated fault plan and are skipped by a
//! plain `cargo test`; run them with
//! `cargo test -p bofl-fleet --features stress`.

use bofl::baselines::OracleController;
use bofl::exploit::ExploitParams;
use bofl_fl::server::FederationConfig;
use bofl_fleet::prelude::*;
use bofl_workload::{FlTask, TaskKind, Testbed};

/// The ISSUE's reference fault plan: 30% transient stragglers slowed
/// 2–4×, 10% of uploads lost.
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

/// Builds a simulation where every client runs the Oracle controller for
/// its own device: the exploitation ILP plans rounds that *fill* the
/// deadline, which is exactly the posture a mid-round slowdown punishes —
/// and mid-round escalation rescues.
fn oracle_sim(
    spec: FleetSpec,
    seed: u64,
    aggregation: AggregationPolicy,
    retry: RetryPolicy,
    exploit: ExploitParams,
) -> FleetSimulation {
    FleetSimulation::builder(spec)
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

/// The headline acceptance check: on the same fleet seed and the same
/// fault plan, the recovery configuration achieves a strictly lower
/// deadline-miss rate AND strictly more aggregated updates per round than
/// the no-recovery baseline.
#[test]
fn recovery_stack_beats_no_recovery_baseline() {
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

    // The mechanisms actually fired (this is recovery, not luck) …
    assert!(
        recovered.metrics.escalated_jobs() > 0,
        "guardian escalation never fired"
    );

    // … and every one of them is visible in the CSV artifact.
    let csv = recovered.metrics.to_csv();
    let header = csv.lines().next().unwrap();
    for col in [
        "quorum",
        "quorum_shortfall",
        "upload_retries",
        "recovered_uploads",
        "escalated_jobs",
        "quarantined",
    ] {
        assert!(header.contains(col), "CSV header missing `{col}`");
    }
    let cols = header.split(',').count();
    assert!(csv.lines().skip(1).all(|l| l.split(',').count() == cols));
}

/// Satellite check: under the reference fault plan, the quorum +
/// over-selection + retry policy strictly lowers the number of *wasted*
/// rounds (zero aggregated updates) relative to the default policy.
#[test]
fn quorum_policy_lowers_wasted_round_count() {
    let seed = 71;
    let spec = FleetSpec::uniform_agx(8, seed);
    let run = |aggregation: AggregationPolicy, retry: RetryPolicy| {
        FleetSimulation::builder(spec)
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
        FleetSimulation::builder(spec)
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

/// Stress profile: an elevated fault plan (dropout + heavy stragglers +
/// lossy uplink) across more rounds. Gated behind the `stress` feature so
/// a plain `cargo test` stays fast; CI's stress-profile job enables it.
#[test]
#[cfg_attr(not(feature = "stress"), ignore = "enable with --features stress")]
fn stress_recovery_stack_survives_elevated_faults() {
    let seed = 97;
    let spec = FleetSpec::mixed(12, seed);
    let faults = FaultPlan::new(seed ^ 0xFA17)
        .with_dropout(0.2)
        .with_stragglers(0.5, (2.0, 6.0))
        .with_upload_failures(0.3);
    let run = |workers: usize| {
        FleetSimulation::builder(spec)
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

/// Stress profile: the no-faults path is bit-identical with and without
/// the recovery machinery armed, proving the recovery layer is pay-for-
/// use (retry policies and quorum checks never perturb a healthy fleet).
#[test]
#[cfg_attr(not(feature = "stress"), ignore = "enable with --features stress")]
fn stress_recovery_machinery_is_inert_on_healthy_fleets() {
    let seed = 123;
    let spec = FleetSpec::mixed(10, seed);
    let run = |retry: RetryPolicy| {
        FleetSimulation::builder(spec)
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
