//! Socket acceptance: carrying a round over real localhost TCP must
//! change *nothing*. Virtual timestamps ride inside the frames, so after
//! the canonical sort a zero-fault socket run — at any lane count, with
//! forced reconnects, or with one spawned OS process per client — is
//! byte-identical to the virtual engine. The chaos decorator composes
//! over the socket exactly as it does over the virtual wire: the seeded
//! fault schedule is transport-independent.

use std::time::Duration;

use bofl_control::chaos::ChaosTransport;
use bofl_control::prelude::*;
use bofl_fl::server::FederationConfig;
use proptest::prelude::*;

/// A deliberately hostile baseline: dropout, stragglers, upload
/// failures, churn, retries and quorum closes all active at once —
/// everything except wire faults.
fn builder(seed: u64, workers: usize) -> ControlSimulationBuilder {
    ControlSimulation::builder(FleetSpec::mixed(10, seed))
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
                .with_upload_failures(0.1)
                .with_churn(0.1, 1),
        )
        .retry(RetryPolicy::recovery())
}

fn run_virtual(seed: u64, workers: usize) -> ControlRunReport {
    builder(seed, workers).build().run()
}

fn assert_identical(reference: &ControlRunReport, got: &ControlRunReport, what: &str) {
    assert_eq!(
        reference.journal.to_jsonl(),
        got.journal.to_jsonl(),
        "journal diverged: {what}"
    );
    assert_eq!(
        reference.metrics.to_csv(),
        got.metrics.to_csv(),
        "metrics diverged: {what}"
    );
    assert_eq!(reference.history, got.history, "history diverged: {what}");
    assert_eq!(reference.closes, got.closes, "closes diverged: {what}");
}

#[test]
fn zero_fault_socket_is_byte_identical_to_virtual_at_any_lane_count() {
    let seed = 42;
    let reference = run_virtual(seed, 1);
    for lanes in [1, 2, 8] {
        let socket = builder(seed, 2)
            .transport(SocketTransport::in_process(lanes))
            .build()
            .run();
        assert_identical(&reference, &socket, &format!("lanes={lanes}"));
    }
}

#[test]
fn forced_reconnects_leave_the_journal_invariant() {
    // The coordinator drops the first accepted connections of every
    // round; lanes must come back through seeded backoff and deliver the
    // same set — exactly once, thanks to (round, client, copy) dedup.
    let seed = 97;
    let reference = run_virtual(seed, 1);
    let reconnecting = builder(seed, 2)
        .transport(
            SocketTransport::in_process(2)
                .with_accept_faults(3)
                .with_ack_timeout(Duration::from_millis(300)),
        )
        .build()
        .run();
    assert_identical(&reference, &reconnecting, "accept_faults=3");
}

#[test]
fn socket_lanes_under_an_empty_chaos_plan_stay_identical() {
    // Socket lanes wrapped in a chaos decorator with an *empty* plan must
    // still be a byte-identical no-op: chaos only changes the run when a
    // fault family is armed.
    let seed = 7;
    let reference = run_virtual(seed, 2);
    let chaotic = builder(seed, 2)
        .transport(ChaosTransport::new(
            Box::new(SocketTransport::in_process(4)),
            ChaosPlan::none(),
        ))
        .build()
        .run();
    assert_eq!(reference.journal.to_csv(), chaotic.journal.to_csv());
    assert_identical(&reference, &chaotic, "empty chaos plan over socket lanes");
}

#[test]
fn socket_lanes_report_wire_stats_per_round() {
    let mut sim = builder(11, 2)
        .transport(SocketTransport::in_process(3))
        .build();
    let report = sim.run();
    let plane = sim.plane();
    let plane = plane.lock().unwrap();
    // Every round recorded its stats; a faultless wire loses nothing.
    for round in 0..3 {
        let stats = plane
            .wire_stats(round)
            .expect("every round records its stats");
        assert_eq!(stats.dropped, 0, "round {round}");
        assert_eq!(stats.duplicated, 0, "round {round}");
        assert_eq!(stats.partition_held, 0, "round {round}");
    }
    let totals = plane.wire_totals();
    assert!(totals.sent > 0);
    assert_eq!(totals.dropped, 0);
    assert_eq!(totals.duplicated, 0);
    assert_eq!(totals.partition_held, 0);
    assert_eq!(report.metrics.chaos_dropped(), 0);
}

#[test]
fn chaos_schedule_is_transport_independent() {
    // Satellite: the same seeded ChaosPlan over the socket produces the
    // same faults, the same journal, the same labels' structure as over
    // the virtual wire — chaos draws only on (seed, round, client).
    let seed = 5150;
    let plan = ChaosPlan::new(seed ^ 0xC4A0)
        .with_drops(0.2)
        .with_duplicates(0.1)
        .with_reordering(0.2, 0.5);
    let over_virtual = builder(seed, 2).chaos(plan).build().run();
    let over_socket = builder(seed, 2)
        .transport(SocketTransport::in_process(4))
        .chaos(plan)
        .build()
        .run();
    assert_identical(&over_virtual, &over_socket, "chaos over socket");
}

#[test]
fn chaos_decorator_composes_over_the_socket_at_carry_level() {
    use bofl_control::transport::Transport;
    let plan = ChaosPlan::new(0xBEEF)
        .with_drops(0.25)
        .with_duplicates(0.2)
        .with_reordering(0.3, 0.4);
    let messages: Vec<Envelope> = (0..12)
        .map(|i| Envelope {
            round: 2,
            client_id: i,
            t_send_s: 30.0 + i as f64 * 0.5,
        })
        .collect();
    let mut over_virtual = ChaosTransport::over_virtual(plan);
    let mut over_socket = ChaosTransport::new(Box::new(SocketTransport::in_process(4)), plan);
    assert_eq!(over_socket.label(), "chaos(socket(4 lanes))");
    assert_eq!(
        over_virtual.carry(2, 30.0, &messages),
        over_socket.carry(2, 30.0, &messages),
        "the decorated fault schedule must not depend on the carrier"
    );
}

#[test]
fn spawned_processes_reproduce_the_virtual_carry() {
    use bofl_control::transport::Transport;
    let exe = env!("CARGO_BIN_EXE_socket_client");
    let messages: Vec<Envelope> = (0..6)
        .map(|i| Envelope {
            round: 1,
            client_id: i,
            // Bit-awkward values, to prove f64s survive the exec boundary.
            t_send_s: 10.0 + (i as f64) / 3.0,
        })
        .collect();
    let want = VirtualTransport.carry(1, 10.0, &messages);
    let got = SocketTransport::spawned(exe).carry(1, 10.0, &messages);
    assert_eq!(got, want, "process clients must match the virtual carry");
}

#[test]
fn spawned_clients_survive_forced_reconnects() {
    // The coordinator drops the first two accepted connections cold: a
    // process client must reconnect through the lane's seeded backoff,
    // exactly as a thread lane does, or its update is lost.
    use bofl_control::transport::Transport;
    let messages: Vec<Envelope> = (0..6)
        .map(|i| Envelope {
            round: 2,
            client_id: i,
            t_send_s: 20.0 + (i as f64) / 7.0,
        })
        .collect();
    let want = VirtualTransport.carry(2, 20.0, &messages);
    let got = SocketTransport::spawned(env!("CARGO_BIN_EXE_socket_client"))
        .with_accept_faults(2)
        .carry(2, 20.0, &messages);
    assert_eq!(got, want, "dropped connections must not lose an update");
}

#[test]
fn spawned_process_sim_matches_virtual() {
    // A shorter config — each envelope costs a process spawn.
    let seed = 77;
    let short = |transport: Option<SocketTransport>| {
        let mut b =
            ControlSimulation::builder(FleetSpec::mixed(6, seed)).federation(FederationConfig {
                clients_per_round: 3,
                rounds: 2,
                classes: 3,
                feature_dims: 6,
                seed,
                aggregation: AggregationPolicy::recovery(),
                ..FederationConfig::default()
            });
        if let Some(t) = transport {
            b = b.transport(t);
        }
        b.build().run()
    };
    let reference = short(None);
    let spawned = short(Some(SocketTransport::spawned(env!(
        "CARGO_BIN_EXE_socket_client"
    ))));
    assert_identical(&reference, &spawned, "spawned processes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any seed, any worker count, any lane count: one canonical journal,
    /// even when every lane is a real TCP connection.
    #[test]
    fn any_socket_lane_count_reproduces_the_virtual_journal(
        seed in 0u64..1_000_000,
        workers in 1usize..5,
        lanes in 1usize..6,
    ) {
        let reference = run_virtual(seed, 1);
        let socket = builder(seed, workers)
            .transport(SocketTransport::in_process(lanes))
            .build()
            .run();
        prop_assert_eq!(reference.journal.to_jsonl(), socket.journal.to_jsonl());
        prop_assert_eq!(reference.metrics.to_csv(), socket.metrics.to_csv());
        prop_assert_eq!(&reference.history, &socket.history);
        prop_assert_eq!(&reference.closes, &socket.closes);
    }
}
