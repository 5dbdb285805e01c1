//! Kill-and-resume acceptance: a coordinator killed mid-run and revived
//! from its write-ahead log must be indistinguishable from one that
//! never died. The interrupted run replays the WAL's committed prefix
//! (torn tails and the uncommitted in-flight round are truncated away),
//! re-executes from the first uncommitted round, and ends with the same
//! journal — byte for byte — the same final client states, the same
//! round closes, and the same WAL file bytes as the uninterrupted
//! reference. A live `JournalTail` can stream the log the whole time
//! without perturbing the writer.

use std::io::Write;
use std::path::PathBuf;

use bofl_control::prelude::*;
use bofl_control::wal::encode_record;
use bofl_fl::server::FederationConfig;

const ROUNDS: usize = 6;

fn wal_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bofl-kar-{}-{name}.wal", std::process::id()))
}

/// Deterministic but non-trivial: stragglers and dropout are seeded per
/// `(round, client)`, so the resumed tail re-derives the exact same
/// faults the uninterrupted run saw. Liveness stays off here; resume
/// re-arms over-selection escalation from the last committed close's
/// `degraded` flag (see `resume_escalation.rs` and `crash_sweep.rs`).
fn builder(seed: u64, workers: usize) -> ControlSimulationBuilder {
    ControlSimulation::builder(FleetSpec::mixed(10, seed))
        .federation(FederationConfig {
            clients_per_round: 4,
            rounds: ROUNDS,
            classes: 3,
            feature_dims: 6,
            seed,
            aggregation: AggregationPolicy::recovery(),
            ..FederationConfig::default()
        })
        .workers(workers)
        .faults(
            FaultPlan::new(seed ^ 0xFA17)
                .with_dropout(0.1)
                .with_stragglers(0.2, (1.5, 2.5)),
        )
        .retry(RetryPolicy::recovery())
}

#[test]
fn a_killed_coordinator_resumes_to_the_identical_run() {
    let seed = 2026;
    let reference_wal = wal_path("reference");
    let crashed_wal = wal_path("crashed");

    // The uninterrupted reference, WAL'd for the byte comparison.
    let mut reference = builder(seed, 2).wal(&reference_wal).build();
    let reference_report = reference.run();
    let reference_states = reference.plane().lock().unwrap().states().to_vec();
    drop(reference);

    // The victim: three committed rounds, then the "crash" — the process
    // state is simply dropped; only the WAL survives.
    let mut victim = builder(seed, 2).wal(&crashed_wal).build();
    victim.run_rounds(3);
    let committed_events = victim.plane().lock().unwrap().journal().total_appended();
    drop(victim);

    // Dress the crash site: a whole-but-uncommitted in-flight record
    // (round 3 started selecting), then a torn half-record. Both must be
    // discarded by resume.
    {
        let in_flight = encode_record(&WalRecord::Event(EventEntry {
            seq: committed_events,
            round: 3,
            client: 0,
            from: ClientState::Idle,
            to: ClientState::Selected,
            cause: EventCause::Selection,
            t_s: 1.0e9, // nonsense on purpose: it must not leak into now_s
        }));
        let mut torn = in_flight.clone();
        torn.truncate(torn.len() / 2);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&crashed_wal)
            .unwrap();
        f.write_all(&in_flight).unwrap();
        f.write_all(&torn).unwrap();
    }

    // Revive — at a different worker count, to prove the journal never
    // depended on scheduling.
    let mut resumed = builder(seed, 4).resume_from_wal(&crashed_wal).build();
    let report = *resumed.resume_report().expect("resume report");
    assert_eq!(resumed.next_round(), 3);
    assert_eq!(report.next_round, 3);
    assert_eq!(report.events_replayed as u64, committed_events);
    assert_eq!(report.in_flight_discarded, 1);
    assert!(report.torn_bytes > 0);
    assert!(report.now_s > 0.0 && report.now_s < 1.0e9);

    let resumed_report = resumed.run();
    assert_eq!(resumed.next_round(), ROUNDS);
    let resumed_states = resumed.plane().lock().unwrap().states().to_vec();
    drop(resumed);

    assert_eq!(
        reference_report.journal.to_jsonl(),
        resumed_report.journal.to_jsonl(),
        "the resumed journal must be byte-identical to the uninterrupted run"
    );
    assert_eq!(reference_report.closes, resumed_report.closes);
    assert_eq!(resumed_report.closes.len(), ROUNDS);
    assert!(!resumed_report.closes.last().unwrap().degraded);
    assert_eq!(reference_states, resumed_states);
    assert_eq!(
        std::fs::read(&reference_wal).unwrap(),
        std::fs::read(&crashed_wal).unwrap(),
        "the recovered WAL must converge to the uninterrupted WAL, byte for byte"
    );

    std::fs::remove_file(&reference_wal).ok();
    std::fs::remove_file(&crashed_wal).ok();
}

#[test]
fn resume_of_a_completed_run_has_nothing_left_to_do() {
    let seed = 31;
    let path = wal_path("complete");
    let finished = builder(seed, 2).wal(&path).build().run();

    let mut resumed = builder(seed, 1).resume_from_wal(&path).build();
    let report = *resumed.resume_report().unwrap();
    assert_eq!(report.next_round, ROUNDS);
    assert_eq!(report.in_flight_discarded, 0);
    assert_eq!(report.torn_bytes, 0);
    let tail_report = resumed.run();
    assert!(tail_report.history.rounds.is_empty(), "no rounds remain");
    assert_eq!(tail_report.journal.to_jsonl(), finished.journal.to_jsonl());
    assert_eq!(tail_report.closes, finished.closes);
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_works_under_a_socket_transport_and_chaos() {
    // Crash-safety composes with the rest of the stack: the same journal
    // comes back when the resumed run carries its rounds over TCP with a
    // seeded chaos schedule on top.
    let seed = 404;
    let plan = ChaosPlan::new(seed ^ 0xC4A0)
        .with_drops(0.15)
        .with_duplicates(0.1);
    let stack = |workers: usize| {
        builder(seed, workers)
            .transport(SocketTransport::in_process(2))
            .chaos(plan)
    };
    let path = wal_path("socket-chaos");
    let reference = stack(2).build().run();

    let mut victim = stack(2).wal(&path).build();
    victim.run_rounds(2);
    drop(victim);
    let mut resumed = stack(3).resume_from_wal(&path).build();
    assert_eq!(resumed.next_round(), 2);
    let resumed_report = resumed.run();
    assert_eq!(
        reference.journal.to_jsonl(),
        resumed_report.journal.to_jsonl()
    );
    assert_eq!(reference.closes, resumed_report.closes);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_live_tail_streams_the_wal_without_perturbing_the_writer() {
    let seed = 55;
    let path = wal_path("live-tail");
    // Writer: a real simulation appending round by round on its own
    // thread. Reader: a JournalTail polling the same file concurrently.
    let writer_path = path.clone();
    let writer = std::thread::spawn(move || {
        let mut sim = builder(seed, 2).wal(&writer_path).build();
        for _ in 0..ROUNDS {
            sim.run_rounds(1);
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        sim.plane().lock().unwrap().journal().to_jsonl()
    });
    // Wait for the WAL file to exist, then stream it as it grows.
    while !path.exists() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let mut tail = JournalTail::open(&path).unwrap();
    let mut streamed = String::new();
    let mut events = 0usize;
    let mut closes = 0usize;
    while closes < ROUNDS {
        match tail.poll().unwrap() {
            Some(WalRecord::Event(e)) => {
                streamed.push_str(&e.to_json());
                streamed.push('\n');
                events += 1;
            }
            Some(WalRecord::Close(_)) => closes += 1,
            None => std::thread::sleep(std::time::Duration::from_millis(1)),
        }
    }
    let written = writer.join().unwrap();
    assert_eq!(streamed, written, "the tail must reproduce journal.jsonl");
    assert!(events > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn the_journal_tail_bin_prints_the_journal_jsonl() {
    let seed = 808;
    let path = wal_path("bin");
    let report = builder(seed, 1).wal(&path).build().run();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_journal_tail"))
        .arg(&path)
        .output()
        .unwrap();
    assert!(output.status.success());
    assert_eq!(
        String::from_utf8_lossy(&output.stdout),
        report.journal.to_jsonl()
    );

    // --limit caps the stream; --closes adds the close records.
    let limited = std::process::Command::new(env!("CARGO_BIN_EXE_journal_tail"))
        .arg(&path)
        .args(["--limit", "3"])
        .output()
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&limited.stdout).lines().count(), 3);
    let with_closes = std::process::Command::new(env!("CARGO_BIN_EXE_journal_tail"))
        .arg(&path)
        .arg("--closes")
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&with_closes.stdout).into_owned();
    assert_eq!(
        text.matches("\"close\":").count(),
        ROUNDS,
        "one close record per round: {text}"
    );
    std::fs::remove_file(&path).ok();
}
