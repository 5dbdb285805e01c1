//! `fleet_control`: the server-heavy event-driven fleet. Performant
//! clients (no MBO) in a 200-client fleet, updates carried over localhost
//! TCP, every journal record fsync'd to a write-ahead log, with chaos,
//! liveness, churn, shard quorums and int8 uplinks.
//!
//! Rounds run one after another through `ControlSimulation::run_rounds(1)`;
//! the cohort is the concurrency.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bofl::baselines::PerformantController;
use bofl_control::prelude::*;
use bofl_control::ControlRunReport;
use bofl_fl::FederationConfig;
use bofl_fleet::DeviceKind;

use crate::episode::{percentile, Episode};
use crate::probe::{Probe, TimedCompressor, TimedController, TimedTransport};

const CLIENTS: usize = 200;
const COHORT: usize = 16;
const ROUNDS: usize = 100;
/// Records re-appended into a fresh WAL to time a single append.
const WAL_PROBE_RECORDS: usize = 256;

/// A built simulation, ready for its first round.
pub struct Input {
    sim: ControlSimulation,
    wal: PathBuf,
}

fn config(seed: u64) -> (FleetSpec, FederationConfig) {
    // The seed picks which clients are AGX boards, never how many: the
    // first derived fleet seed that splits the fleet exactly in half.
    let spec = (0..)
        .map(|j| FleetSpec::mixed(CLIENTS, crate::mix(seed, 11 + 100 * j)))
        .find(|spec| {
            let agx = (0..CLIENTS)
                .filter(|&id| spec.profile(id).kind == DeviceKind::JetsonAgx)
                .count();
            agx * 2 == CLIENTS
        })
        .expect("some derived seed splits the fleet evenly");
    let federation = FederationConfig {
        clients_per_round: COHORT,
        rounds: ROUNDS,
        feature_dims: 8,
        classes: 4,
        seed: crate::mix(seed, 12),
        aggregation: AggregationPolicy::recovery(),
        ..FederationConfig::default()
    };
    (spec, federation)
}

/// Builds the simulation: fleet and dataset synthesis, client models and
/// controllers, and the WAL file. Probes, when given, are installed on
/// the controller, transport and compressor seams.
pub fn setup(seed: u64, workers: usize, work_dir: &Path, probe: Option<&Arc<Probe>>) -> Input {
    let (spec, federation) = config(seed);
    let wal = work_dir.join("fleet_control.wal");
    let faults = FaultPlan::new(crate::mix(seed, 13))
        .with_stragglers(0.1, (1.2, 2.0))
        .with_upload_failures(0.05)
        .with_dropout(0.02)
        .with_churn(0.02, 3);
    let builder = ControlSimulation::builder(spec)
        .federation(federation)
        .workers(workers)
        .retry(RetryPolicy::recovery())
        .faults(faults)
        .chaos(
            ChaosPlan::new(crate::mix(seed, 14))
                .with_drops(0.02)
                .with_delays(0.1, NetworkModel::wifi(), 2e5)
                .with_duplicates(0.02)
                .with_reordering(0.05, 0.5),
        )
        .liveness(LivenessPolicy::recovery(crate::mix(seed, 15)))
        .shard_plan(ShardPlan::with_shards(4), 0.5)
        .wal(&wal);
    let socket = SocketTransport::in_process(workers);
    let builder = match probe {
        None => builder.transport(socket).compressor(Int8Quantizer),
        Some(p) => {
            let p = Arc::clone(p);
            builder
                .transport(TimedTransport::new(socket, Arc::clone(&p)))
                .compressor(TimedCompressor::new(Int8Quantizer, Arc::clone(&p)))
                .controller_factory(move |_| {
                    Box::new(TimedController::new(
                        Box::new(PerformantController::new()),
                        Some(Arc::clone(&p)),
                        None,
                    ))
                })
        }
    };
    Input {
        sim: builder.build(),
        wal,
    }
}

/// Runs every round, then checks the journal and the WAL against the
/// live control plane.
pub fn run(
    mut input: Input,
    workers: usize,
    work_dir: &Path,
    probe: Option<&Arc<Probe>>,
) -> Result<Episode, String> {
    let mut ep = Episode::default();
    let mut stats = Vec::with_capacity(ROUNDS);
    let (mut busy_sum, mut busy_max) = (0.0f64, 0.0f64);
    let mut last: Option<ControlRunReport> = None;

    crate::heap::reset_peak();
    let start = Instant::now();
    let cpu0 = crate::cpu::process_s();
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let report = input.sim.run_rounds(1);
        ep.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(probe) = probe {
            let (sum, max) = probe.take_round_busy();
            busy_sum += sum;
            busy_max += max;
        }
        stats.extend(report.metrics.rounds().iter().cloned());
        ep.energy_j += report.total_energy_j();
        last = Some(report);
    }
    ep.wall_s = start.elapsed().as_secs_f64();
    ep.cpu_s = crate::cpu::process_s() - cpu0;
    ep.peak_heap_mb = crate::heap::peak_mb();
    let last = last.ok_or("no rounds ran")?;

    for r in &stats {
        let misses = (r.deadline_miss_rate * r.selected as f64).round() as u64;
        ep.client_rounds += r.selected as u64;
        ep.deadline_attempted += r.selected as u64;
        ep.deadline_met += r.selected as u64 - misses;
        ep.updates_selected += r.selected as u64;
        ep.updates_delivered += r.aggregated as u64;
        ep.energy_rounds += r.selected as u64;
    }

    // Correctness: the journal alone reproduces the live client states,
    // and a resume from the WAL reproduces states and closes.
    let plane = input.sim.plane();
    let plane = plane.lock().map_err(|_| "control plane poisoned")?;
    if last.journal.evicted() > 0 {
        return Err(format!(
            "journal ring evicted {} events",
            last.journal.evicted()
        ));
    }
    let replayed = ControlPlane::replay(last.journal.iter(), plane.num_clients())
        .map_err(|e| format!("journal replay failed: {e:?}"))?;
    if replayed != plane.states() {
        return Err("journal replay disagrees with the live client states".into());
    }
    let (resumed, report) = ControlPlane::resume(&input.wal, plane.num_clients())
        .map_err(|e| format!("WAL resume failed: {e:?}"))?;
    if resumed.states() != plane.states() || resumed.closes() != plane.closes() {
        return Err("WAL resume disagrees with the live control plane".into());
    }
    if report.next_round != ROUNDS || report.in_flight_discarded != 0 {
        return Err(format!("WAL resume stopped early: {report:?}"));
    }
    let wal_records = (report.events_replayed + plane.closes().len()) as u64;
    if last.closes.len() != ROUNDS {
        return Err(format!("{} of {ROUNDS} rounds closed", last.closes.len()));
    }

    let wire = plane.wire_totals();
    ep.fingerprint = vec![
        ("energy_bits", ep.energy_j.to_bits()),
        ("journal_events", last.journal.total_appended()),
        ("closes", last.closes.len() as u64),
        ("early_closes", last.early_closes() as u64),
        ("aggregated", ep.updates_delivered),
        ("wire_bytes", wire.bytes_on_wire),
        ("wal_records", wal_records),
        ("accuracy_bits", last.final_accuracy().to_bits()),
    ];
    let wall_ms = ep.wall_s * 1e3;
    ep.notes = vec![
        ("clients", CLIENTS as f64, "count"),
        ("final_accuracy_pct", last.final_accuracy() * 100.0, "%"),
    ];
    if let Some(probe) = probe {
        ep.layers.extend([
            ("fl.job_ms", probe.jobs.ms()),
            ("fl.jobs", probe.jobs.calls() as f64),
            (
                "fleet.worker_idle_share",
                1.0 - busy_sum / (workers as f64 * wall_ms),
            ),
            ("fl.server_ms", wall_ms - busy_max),
            ("control.carry_ms", probe.carry.ms()),
            ("control.carried", probe.carry.calls() as f64),
            ("control.wire_bytes", wire.bytes_on_wire as f64),
            ("control.events", last.journal.total_appended() as f64),
            ("control.wal_records", wal_records as f64),
            ("fleet.compress_ms", probe.compress.ms()),
            ("fleet.compress_calls", probe.compress.calls() as f64),
            (
                "control.wal_append_us.p50",
                wal_append_us_p50(&input.wal, &work_dir.join("reappend.wal"))?,
            ),
        ]);
    }
    Ok(ep)
}

/// Re-appends the first records of the run's WAL into a fresh log and
/// returns the median append (write + fsync) time, microseconds.
fn wal_append_us_p50(source: &Path, scratch: &Path) -> Result<f64, String> {
    let (_, records, _) =
        JournalWal::open(source).map_err(|e| format!("cannot reopen the WAL: {e}"))?;
    let mut fresh =
        JournalWal::create(scratch).map_err(|e| format!("cannot create a scratch WAL: {e}"))?;
    let mut us = Vec::with_capacity(WAL_PROBE_RECORDS);
    for (_, record) in records.iter().take(WAL_PROBE_RECORDS) {
        let t = Instant::now();
        fresh
            .append(record)
            .map_err(|e| format!("scratch WAL append failed: {e}"))?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(fresh);
    std::fs::remove_file(scratch).ok();
    Ok(percentile(&us, 50.0))
}
