//! Hierarchical aggregation through the control plane: per-shard quorum
//! accounting on round closes, shard-shortfall causes on reset edges,
//! and byte accounting for the compressed uplink — all without ever
//! discarding an accepted update or perturbing the journalled lifecycle.

use bofl_control::prelude::*;
use bofl_fl::server::FederationConfig;

fn config(seed: u64) -> FederationConfig {
    FederationConfig {
        clients_per_round: 6,
        rounds: 4,
        classes: 3,
        feature_dims: 6,
        seed,
        aggregation: AggregationPolicy::recovery(),
        ..FederationConfig::default()
    }
}

fn hostile_faults(seed: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 0xFA17)
        .with_dropout(0.25)
        .with_stragglers(0.2, (1.5, 3.0))
        .with_upload_failures(0.15)
}

fn build(seed: u64, workers: usize) -> ControlSimulation {
    ControlSimulation::builder(FleetSpec::mixed(12, seed))
        .federation(config(seed))
        .workers(workers)
        .faults(hostile_faults(seed))
        .retry(RetryPolicy::recovery())
        .shard_plan(ShardPlan::with_shards(3), 1.0)
        .build()
}

#[test]
fn shard_accounting_surfaces_in_closes_journal_and_metrics() {
    let report = build(11, 1).run();
    // Every close carries the plan's shard count (3 shards over a
    // 6-client cohort, minus any absent clients).
    assert!(report.closes.iter().all(|c| c.shards >= 1 && c.shards <= 3));
    // A full-quorum fraction under 25% dropout must starve some shard.
    let shortfalls: usize = report.closes.iter().map(|c| c.shard_shortfalls).sum();
    assert!(
        shortfalls > 0,
        "hostile faults must starve at least one shard"
    );
    assert!(report.shard_shortfall_rounds() > 0);
    // Starved shards label their members' reset edges with the dedicated
    // cause — the journal carries the distress signal.
    let labelled: usize = (0..4)
        .map(|r| report.journal.cause_counts(r)[EventCause::ShardQuorumShortfall])
        .sum();
    assert!(
        labelled > 0,
        "starved members must reset with the shard cause"
    );
    // And the metrics CSV surfaces the same bookkeeping.
    assert!(report.metrics.shard_shortfall_rounds() > 0);
    let csv = report.metrics.to_csv();
    let header = csv.lines().next().unwrap();
    assert!(header.contains(",shards,shard_shortfalls,"));
}

#[test]
fn shard_accounting_is_labels_only_never_discards_updates() {
    // The same run with and without a shard plan aggregates the same
    // updates: identical FedAvg history, identical accepted counts.
    let with_plan = build(23, 2).run();
    let without = ControlSimulation::builder(FleetSpec::mixed(12, 23))
        .federation(config(23))
        .workers(2)
        .faults(hostile_faults(23))
        .retry(RetryPolicy::recovery())
        .build()
        .run();
    assert_eq!(with_plan.history, without.history);
    assert_eq!(with_plan.journal.len(), without.journal.len());
    for (a, b) in with_plan.closes.iter().zip(without.closes.iter()) {
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.quorum_met, b.quorum_met);
    }
    assert_eq!(without.closes.iter().map(|c| c.shards).sum::<usize>(), 0);
}

#[test]
fn sharded_journal_is_identical_across_worker_counts() {
    let one = build(37, 1).run();
    let eight = build(37, 8).run();
    assert_eq!(one.history, eight.history);
    assert_eq!(one.journal.to_csv(), eight.journal.to_csv());
    assert_eq!(one.closes, eight.closes);
    assert_eq!(one.metrics.to_csv(), eight.metrics.to_csv());
}

#[test]
fn compressed_uplink_accounts_bytes_and_stays_deterministic() {
    let run = |workers: usize| {
        ControlSimulation::builder(FleetSpec::mixed(12, 5))
            .federation(config(5))
            .workers(workers)
            .faults(hostile_faults(5))
            .retry(RetryPolicy::recovery())
            .compressor(Int8Quantizer)
            .build()
            .run()
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a.history, b.history);
    assert_eq!(a.journal.to_csv(), b.journal.to_csv());
    // Int8 puts roughly one byte per parameter on the wire vs eight raw.
    let wire = a.metrics.wire_bytes();
    let raw = a.metrics.wire_raw_bytes();
    assert!(wire > 0, "compressed uploads must account bytes");
    assert!(wire < raw / 4, "int8 must beat dense f64 by a wide margin");
    let csv = a.metrics.to_csv();
    assert!(csv
        .lines()
        .next()
        .unwrap()
        .contains(",wire_bytes,wire_raw_bytes,"));
}

#[test]
fn identity_compressor_changes_nothing_but_byte_accounting() {
    let base = ControlSimulation::builder(FleetSpec::mixed(10, 9))
        .federation(config(9))
        .faults(hostile_faults(9))
        .build()
        .run();
    let dense = ControlSimulation::builder(FleetSpec::mixed(10, 9))
        .federation(config(9))
        .faults(hostile_faults(9))
        .compressor(NoCompression)
        .build()
        .run();
    // The identity encoding decodes to the exact same f64s, so the whole
    // run — history and journal — is unchanged; only bytes are counted.
    assert_eq!(base.history, dense.history);
    assert_eq!(base.journal.to_csv(), dense.journal.to_csv());
    assert_eq!(base.metrics.wire_bytes(), 0);
    assert!(dense.metrics.wire_bytes() > 0);
    assert_eq!(dense.metrics.wire_bytes(), dense.metrics.wire_raw_bytes());
}
