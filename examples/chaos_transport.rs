//! The pluggable transport under adversarial chaos, end to end: finished
//! updates travel over real localhost TCP socket lanes, a seeded
//! [`ChaosPlan`] drops, delays, duplicates, reorders and partitions them
//! on the wire, and the server's liveness tracker suspects, expires or
//! heals the silent senders instead of hanging the round. Degraded
//! closes arm over-selection escalation for the next round.
//!
//! ```sh
//! cargo run --release --example chaos_transport
//! ```

use bofl_control::prelude::*;
use bofl_fl::FederationConfig;

const CLIENTS: usize = 40;
const ROUNDS: usize = 10;
const PER_ROUND: usize = 8;
const FLEET_SEED: u64 = 2025;

fn simulation(lanes: usize) -> ControlSimulation {
    let spec = FleetSpec::mixed(CLIENTS, FLEET_SEED);
    ControlSimulation::builder(spec)
        .federation(FederationConfig {
            clients_per_round: PER_ROUND,
            rounds: ROUNDS,
            deadline_ratio: 2.5,
            feature_dims: 8,
            classes: 4,
            seed: FLEET_SEED,
            aggregation: AggregationPolicy::recovery(),
            ..FederationConfig::default()
        })
        .workers(4)
        .retry(RetryPolicy::recovery())
        // Real TCP lanes carry the updates; chaos decorates them.
        .transport(SocketTransport::in_process(lanes))
        .chaos(
            ChaosPlan::new(FLEET_SEED ^ 0xC4A0)
                .with_drops(0.2)
                .with_delays(0.2, NetworkModel::lte(), 2.0e6)
                .with_duplicates(0.1)
                .with_reordering(0.3, 8.0)
                .with_partitions(0.15, (30.0, 600.0)),
        )
        // Suspect at 1.25× the round deadline, expire half a deadline
        // later, ±10% seeded jitter so timeouts never storm in sync.
        .liveness(LivenessPolicy::recovery(FLEET_SEED))
        .build()
}

fn main() {
    println!(
        "fleet: {CLIENTS} mixed AGX/TX2 clients, {ROUNDS} rounds × {PER_ROUND} nominal cohort, \
         socket lanes + seeded chaos (drop/delay/dup/reorder/partition) + liveness"
    );

    let mut sim = simulation(4);
    let report = sim.run();

    println!("\nround closes:");
    for c in &report.closes {
        println!(
            "  round {:>2}: t={:>7.1}s accepted={} quorum={} {}{}{}",
            c.round,
            c.t_s,
            c.accepted,
            c.quorum,
            if c.quorum_met { "met" } else { "SHORTFALL" },
            if c.closed_early { ", closed early" } else { "" },
            if c.degraded { ", DEGRADED" } else { "" },
        );
    }

    let plane = sim.plane();
    let wire = plane.lock().unwrap().wire_totals();
    println!(
        "\nwire: {} sent, {} dropped, {} delayed, {} duplicated, {} reordered, {} partition-held",
        wire.sent, wire.dropped, wire.delayed, wire.duplicated, wire.reordered, wire.partition_held
    );

    let (mut suspected, mut expired, mut healed) = (0, 0, 0);
    for r in 0..ROUNDS as u32 {
        let (s, e, h) = report.journal.liveness_counts(r);
        suspected += s;
        expired += e;
        healed += h;
    }
    println!(
        "liveness: {suspected} suspected, {healed} healed, {expired} expired \
         (also in the metrics CSV's suspected/expired/healed columns)"
    );
    println!(
        "degraded closes: {} (each arms over-selection escalation for the next round)",
        report.closes.iter().filter(|c| c.degraded).count()
    );

    // Chaos is seeded per (round, client), so the lane count is free to
    // change without changing a single journalled byte.
    let two_lanes = simulation(2).run();
    assert_eq!(
        report.journal.to_csv(),
        two_lanes.journal.to_csv(),
        "journal must not depend on transport lane count"
    );
    println!("\ndeterminism: 4-lane and 2-lane journals are byte-identical ✓");

    println!(
        "\nfinal accuracy {:.1}%, total energy {:.0} J",
        report.final_accuracy() * 100.0,
        report.total_energy_j()
    );
}
