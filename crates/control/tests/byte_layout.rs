//! The bytes on the wire and on disk, pinned. `crash_sweep` and
//! `kill_and_resume` compare two WAL files written by the same code, so
//! a consistent change to the record layout would pass them; these
//! values were recorded once and must never move. Two records, the four
//! frame kinds, and the whole WAL of a short seeded run over socket
//! lanes with chaos, liveness, churn and a shard-quorum plan (as an
//! FNV-1a hash and a length).

use std::path::PathBuf;

use bofl_control::prelude::*;
use bofl_control::wal::encode_record;
use bofl_fl::server::FederationConfig;
use bofl_fleet::wire::{encode_frame, Frame, WireMsg};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn wal_records_keep_their_bytes() {
    let event = WalRecord::Event(EventEntry {
        seq: 0x0102_0304_0506_0708,
        round: 7,
        client: 42,
        from: ClientState::Reporting,
        to: ClientState::Aggregated,
        cause: EventCause::UploadDelivered,
        t_s: 12.625,
    });
    let close = WalRecord::Close(RoundClose {
        round: 3,
        t_s: 99.25,
        accepted: 5,
        quorum: 4,
        quorum_met: true,
        closed_early: false,
        degraded: true,
        shards: 2,
        shard_shortfalls: 1,
    });
    assert_eq!(
        hex(&encode_record(&event)),
        "10a1f1b0011b0000000807060504030201070000002a0000000506070000000000402940c2845bbc"
    );
    assert_eq!(
        hex(&encode_record(&close)),
        "10a1f1b0021d000000030000000000000000d058400500000004000000050200000001000000eba6db22"
    );
}

#[test]
fn wire_frames_keep_their_bytes() {
    let msg = WireMsg {
        round: 3,
        client: 17,
        copy: 1,
        t_send_s: 10.0 + 1.0 / 3.0,
    };
    let frames = [
        Frame::Data(msg),
        Frame::Ack(msg),
        Frame::Ping(0xDEAD_BEEF_0BAD_F00D),
        Frame::Pong(1),
    ];
    let got: Vec<String> = frames.iter().map(|f| hex(&encode_frame(f))).collect();
    assert_eq!(
        got,
        [
            "c750f1b00114000000030000001100000001000000abaaaaaaaaaa2440ed928bc1",
            "c750f1b00214000000030000001100000001000000abaaaaaaaaaa2440be2466f4",
            "c750f1b003080000000df0ad0befbeadde98ff85a2",
            "c750f1b004080000000100000000000000745a6b05",
        ]
    );
}

#[test]
fn a_seeded_run_writes_the_recorded_wal() {
    const SEED: u64 = 32;
    let path: PathBuf =
        std::env::temp_dir().join(format!("bofl-layout-{}.wal", std::process::id()));
    let report = ControlSimulation::builder(FleetSpec::mixed(10, SEED))
        .federation(FederationConfig {
            clients_per_round: 4,
            rounds: 3,
            classes: 3,
            feature_dims: 6,
            seed: SEED,
            aggregation: AggregationPolicy::recovery(),
            ..FederationConfig::default()
        })
        .workers(2)
        .faults(
            FaultPlan::new(SEED ^ 0xFA17)
                .with_dropout(0.1)
                .with_stragglers(0.2, (1.5, 2.5))
                .with_upload_failures(0.1)
                .with_churn(0.05, 2),
        )
        .retry(RetryPolicy::recovery())
        .transport(SocketTransport::in_process(2))
        .chaos(
            ChaosPlan::new(SEED ^ 0xC4A0)
                .with_drops(0.15)
                .with_delays(0.2, NetworkModel::lte(), 2.0e6)
                .with_duplicates(0.1)
                .with_reordering(0.2, 0.5)
                .with_partitions(0.15, (30.0, 600.0)),
        )
        .liveness(LivenessPolicy::recovery(SEED ^ 0x11FE))
        .shard_plan(ShardPlan::with_shards(2), 0.5)
        .wal(&path)
        .build()
        .run();
    let wal = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(report.closes.len(), 3);
    assert!(
        report.metrics.chaos_dropped() > 0,
        "chaos must drop something"
    );
    assert!(
        report.metrics.suspected() > 0,
        "liveness must suspect someone"
    );
    assert_eq!((wal.len(), fnv1a(&wal)), (3726, 9872279251153021635));
}
