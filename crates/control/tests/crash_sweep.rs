//! Crash-point sweep: a coordinator may die at *any* byte of its
//! write-ahead log, not only between rounds. One seeded run with the
//! whole stack armed — real TCP lanes, chaos, liveness, churn, a
//! shard-quorum plan and an int8 uplink — writes the reference WAL. A
//! copy of that log is then cut at every record boundary, plus once
//! inside an Event record and once inside a Close record (torn writes),
//! and each copy is resumed and run to the end. Every resumed run must
//! reproduce the reference journal, round closes, final client states
//! and WAL file, byte for byte.
//!
//! Model parameters and error-feedback residuals are not logged, so they
//! lie outside the WAL's contract and the sweep does not compare them.

use std::path::{Path, PathBuf};

use bofl_control::prelude::*;
use bofl_fl::server::FederationConfig;

const ROUNDS: usize = 4;
const SEED: u64 = 77;

fn wal_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bofl-sweep-{}-{name}.wal", std::process::id()))
}

fn builder(workers: usize) -> ControlSimulationBuilder {
    ControlSimulation::builder(FleetSpec::mixed(10, SEED))
        .federation(FederationConfig {
            clients_per_round: 4,
            rounds: ROUNDS,
            classes: 3,
            feature_dims: 6,
            seed: SEED,
            aggregation: AggregationPolicy::recovery(),
            ..FederationConfig::default()
        })
        .workers(workers)
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
                .with_duplicates(0.1)
                .with_reordering(0.2, 0.5),
        )
        .liveness(LivenessPolicy::recovery(SEED ^ 0x11FE))
        .shard_plan(ShardPlan::with_shards(2), 0.5)
        .compressor(Int8Quantizer)
}

/// Everything the WAL promises to reproduce.
struct Outcome {
    jsonl: String,
    closes: Vec<RoundClose>,
    states: Vec<ClientState>,
    wal: Vec<u8>,
}

fn finish(mut sim: ControlSimulation, wal: &Path) -> Outcome {
    let report = sim.run();
    let states = sim.plane().lock().unwrap().states().to_vec();
    drop(sim);
    Outcome {
        jsonl: report.journal.to_jsonl(),
        closes: report.closes,
        states,
        wal: std::fs::read(wal).unwrap(),
    }
}

#[test]
fn every_crash_point_resumes_to_the_identical_run() {
    let reference_wal = wal_path("reference");
    let reference = finish(builder(2).wal(&reference_wal).build(), &reference_wal);
    assert_eq!(reference.closes.len(), ROUNDS);

    let (_, records, torn) = JournalWal::open(&reference_wal).unwrap();
    assert_eq!(torn, 0);
    let bytes = &reference.wal;
    let end_of = |i: usize| records.get(i + 1).map_or(bytes.len() as u64, |r| r.0);

    // Every record boundary, including the empty log and the whole log.
    let mut cuts: Vec<u64> = records.iter().map(|(offset, _)| *offset).collect();
    cuts.push(bytes.len() as u64);
    // One torn write inside a mid-run record of each kind.
    let torn_inside = |want_close: bool| {
        let i = records
            .iter()
            .enumerate()
            .filter(|(_, (_, r))| matches!(r, WalRecord::Close(_)) == want_close)
            .map(|(i, _)| i)
            .nth(1)
            .expect("the run logs at least two records of each kind");
        let (start, end) = (records[i].0, end_of(i));
        start + (end - start) / 2
    };
    cuts.push(torn_inside(false));
    cuts.push(torn_inside(true));

    let crashed_wal = wal_path("crashed");
    for (n, &cut) in cuts.iter().enumerate() {
        std::fs::write(&crashed_wal, &bytes[..cut as usize]).unwrap();
        // The committed prefix: whole records up to and including the
        // last Close before the cut.
        let whole = (0..records.len()).take_while(|&i| end_of(i) <= cut).count();
        let committed = records[..whole]
            .iter()
            .rposition(|(_, r)| matches!(r, WalRecord::Close(_)))
            .map_or(0, |i| i + 1);
        let closes_before = records[..committed]
            .iter()
            .filter(|(_, r)| matches!(r, WalRecord::Close(_)))
            .count();

        // Resume at a different worker count every other cut: the log
        // never depended on scheduling.
        let sim = builder(1 + n % 2).resume_from_wal(&crashed_wal).build();
        let report = *sim.resume_report().expect("resume report");
        assert_eq!(report.next_round, closes_before, "cut at byte {cut}");
        assert_eq!(
            report.events_replayed,
            committed - closes_before,
            "cut at byte {cut}"
        );
        assert_eq!(
            report.in_flight_discarded,
            whole - committed,
            "cut at byte {cut}"
        );
        let whole_end = if whole == 0 { 0 } else { end_of(whole - 1) };
        assert_eq!(report.torn_bytes, cut - whole_end, "cut at byte {cut}");

        let resumed = finish(sim, &crashed_wal);
        assert_eq!(resumed.jsonl, reference.jsonl, "journal, cut at byte {cut}");
        assert_eq!(
            resumed.closes, reference.closes,
            "closes, cut at byte {cut}"
        );
        assert_eq!(
            resumed.states, reference.states,
            "states, cut at byte {cut}"
        );
        assert!(resumed.wal == reference.wal, "WAL bytes, cut at byte {cut}");
    }

    std::fs::remove_file(&reference_wal).ok();
    std::fs::remove_file(&crashed_wal).ok();
}
