//! The fault-recovery acceptance check on the fleet metrics: with the
//! recovery stack enabled (quorum + over-selection, upload retry with
//! deterministic backoff, and mid-round guardian escalation) a faulted
//! fleet must make strictly more progress than the same fleet without it,
//! and every recovery action must be visible in the fleet metrics CSV.
//! The journal-level view of the same runs is `recovery_event_driven`.

mod common;

use bofl::exploit::ExploitParams;
use bofl_control::prelude::*;
use common::oracle_sim;

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
