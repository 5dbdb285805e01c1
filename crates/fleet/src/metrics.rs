//! Fleet-level metrics: per-round distributions over client outcomes,
//! deadline-miss/fault accounting, phase occupancy, and CSV export in the
//! same header-plus-rows shape as the repo's `results/` tables.

use bofl::Phase;
use bofl_fl::engine::ClientOutcome;
use bofl_fl::server::RoundRecord;
use std::fmt::{self, Write as _};
use std::fs;
use std::io;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Summary statistics of one per-client quantity within a round.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Distribution {
    /// Number of samples.
    pub count: usize,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// 95th-percentile sample (nearest-rank; 0 when empty).
    pub p95: f64,
}

impl Distribution {
    /// Summarizes `samples` (need not be sorted). NaN samples indicate a
    /// bug upstream — debug builds assert; release builds still produce a
    /// total order (`f64::total_cmp`) instead of panicking mid-run.
    pub(crate) fn of(samples: &[f64]) -> Self {
        debug_assert!(
            samples.iter().all(|s| s.is_finite()),
            "distribution samples must be finite"
        );
        if samples.is_empty() {
            return Distribution::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((0.95 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Distribution {
            count: sorted.len(),
            sum: sorted.iter().sum(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            p95: sorted[rank - 1],
        }
    }

    /// Mean of the samples (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Everything the fleet aggregator distills out of one round.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRoundStats {
    /// Zero-based round index.
    pub round: usize,
    /// Clients selected this round.
    pub selected: usize,
    /// Updates actually aggregated.
    pub aggregated: usize,
    /// The server's training deadline, seconds.
    pub deadline_s: f64,
    /// Per-client round energy, joules.
    pub energy_j: Distribution,
    /// Per-client round duration, seconds.
    pub latency_s: Distribution,
    /// Fraction of selected clients that missed their deadline.
    pub deadline_miss_rate: f64,
    /// Clients lost to dropout (server- or fault-injected).
    pub dropouts: usize,
    /// Clients whose upload was lost after training.
    pub upload_failures: usize,
    /// Clients that ran with a straggler slowdown (factor > 1).
    pub stragglers: usize,
    /// The aggregation policy's quorum for this round (`0` = disabled).
    pub quorum: usize,
    /// Updates short of the quorum (`0` = met or disabled).
    pub quorum_shortfall: usize,
    /// Upload retries attempted beyond each client's first try.
    pub upload_retries: usize,
    /// Uploads that failed first but got through on a retry.
    pub recovered_uploads: usize,
    /// Jobs the clients' deadline guardians escalated to `x_max`
    /// mid-round.
    pub escalated_jobs: u64,
    /// Latency observations the clients' controllers quarantined as
    /// contaminated.
    pub quarantined: u64,
    /// Clients that rejoined the fleet this round (churn). Derived from
    /// the control plane's event journal; a barrier run leaves it 0.
    pub churn_arrivals: usize,
    /// Clients that left the fleet this round (churn), mid-round or
    /// between rounds. Journal-derived; a barrier run leaves it 0.
    pub churn_departures: usize,
    /// Updates the chaos transport dropped on the wire this round.
    /// Annotated from the transport's wire stats; engines without a chaos
    /// transport leave all chaos columns 0.
    pub chaos_dropped: usize,
    /// Updates the chaos transport delayed beyond their send time.
    pub chaos_delayed: usize,
    /// Duplicate copies the chaos transport injected.
    pub chaos_duplicated: usize,
    /// Deliveries that arrived out of send order after chaos jitter.
    pub chaos_reordered: usize,
    /// Updates held back by an unhealed network partition at send time.
    pub chaos_partition_held: usize,
    /// Clients the liveness tracker suspected this round (heartbeat
    /// deadline lapsed). Journal-derived; 0 without a liveness policy.
    pub suspected: usize,
    /// Suspected clients that stayed silent past expiry and were declared
    /// dead for the round.
    pub expired: usize,
    /// Suspected clients whose update arrived after all (healed).
    pub healed: usize,
    /// Aggregator shards the round ran with (0 = no shard plan armed).
    /// Annotated from the control plane's round-close records.
    pub shards: usize,
    /// Shards that closed below their local quorum this round.
    pub shard_shortfalls: usize,
    /// Bytes the round's accepted-and-failed uploads put on the wire
    /// after compression (0 when no compressor is armed). Annotated from
    /// the transport's wire statistics.
    pub wire_bytes: u64,
    /// Bytes the same uploads would have occupied uncompressed.
    pub wire_raw_bytes: u64,
    /// Clients per controller phase:
    /// `[none, random exploration, pareto construction, exploitation]`.
    pub phase_counts: [usize; 4],
    /// Per-client MBO `suggest` wall time this round, milliseconds
    /// (all-zero for baselines and rounds that did not re-plan).
    pub suggest_ms: Distribution,
    /// Global-model test accuracy after the round.
    pub test_accuracy: f64,
}

impl FleetRoundStats {
    /// Distills a round's record and outcomes.
    pub(crate) fn from_round(record: &RoundRecord, outcomes: &[ClientOutcome]) -> Self {
        let energies: Vec<f64> = outcomes.iter().map(|o| o.result.energy_j).collect();
        let latencies: Vec<f64> = outcomes.iter().map(|o| o.result.duration_s).collect();
        let misses = outcomes.iter().filter(|o| o.missed_deadline()).count();
        let mut phase_counts = [0usize; 4];
        for o in outcomes {
            let slot = match o.result.phase {
                None => 0,
                Some(Phase::RandomExploration) => 1,
                Some(Phase::ParetoConstruction) => 2,
                Some(Phase::Exploitation) => 3,
            };
            phase_counts[slot] += 1;
        }
        FleetRoundStats {
            round: record.round,
            selected: record.selected.len(),
            aggregated: record.aggregated.len(),
            deadline_s: record.deadline_s,
            energy_j: Distribution::of(&energies),
            latency_s: Distribution::of(&latencies),
            deadline_miss_rate: if outcomes.is_empty() {
                0.0
            } else {
                misses as f64 / outcomes.len() as f64
            },
            dropouts: outcomes.iter().filter(|o| o.dropped).count(),
            upload_failures: outcomes.iter().filter(|o| o.upload_failed).count(),
            stragglers: outcomes.iter().filter(|o| o.straggler_factor > 1.0).count(),
            quorum: record.quorum,
            quorum_shortfall: record.quorum_shortfall,
            upload_retries: outcomes
                .iter()
                .map(|o| o.upload_attempts.saturating_sub(1) as usize)
                .sum(),
            recovered_uploads: outcomes.iter().filter(|o| o.recovered_upload()).count(),
            escalated_jobs: outcomes.iter().map(|o| o.result.escalated_jobs).sum(),
            quarantined: outcomes.iter().map(|o| o.result.quarantined).sum(),
            churn_arrivals: 0,
            churn_departures: 0,
            chaos_dropped: 0,
            chaos_delayed: 0,
            chaos_duplicated: 0,
            chaos_reordered: 0,
            chaos_partition_held: 0,
            suspected: 0,
            expired: 0,
            healed: 0,
            shards: 0,
            shard_shortfalls: 0,
            wire_bytes: 0,
            wire_raw_bytes: 0,
            phase_counts,
            suggest_ms: Distribution::of(
                &outcomes
                    .iter()
                    .map(|o| o.result.suggest_ms)
                    .collect::<Vec<f64>>(),
            ),
            test_accuracy: record.test_accuracy,
        }
    }
}

/// One CSV column: its header name, and how a round's cell is written.
type Column = (
    &'static str,
    fn(&FleetRoundStats, &mut String) -> fmt::Result,
);

/// The metrics CSV schema, in column order: the one place each column's
/// name and format are declared.
#[rustfmt::skip] // one column per line
const COLUMNS: [Column; 40] = [
    ("round", |r, o| write!(o, "{}", r.round)),
    ("selected", |r, o| write!(o, "{}", r.selected)),
    ("aggregated", |r, o| write!(o, "{}", r.aggregated)),
    ("deadline_s", |r, o| write!(o, "{:.6}", r.deadline_s)),
    ("energy_total_j", |r, o| write!(o, "{:.4}", r.energy_j.sum)),
    ("energy_mean_j", |r, o| write!(o, "{:.4}", r.energy_j.mean())),
    ("energy_p95_j", |r, o| write!(o, "{:.4}", r.energy_j.p95)),
    ("latency_mean_s", |r, o| write!(o, "{:.6}", r.latency_s.mean())),
    ("latency_p95_s", |r, o| write!(o, "{:.6}", r.latency_s.p95)),
    ("latency_max_s", |r, o| write!(o, "{:.6}", r.latency_s.max)),
    ("miss_rate", |r, o| write!(o, "{:.4}", r.deadline_miss_rate)),
    ("dropouts", |r, o| write!(o, "{}", r.dropouts)),
    ("upload_failures", |r, o| write!(o, "{}", r.upload_failures)),
    ("stragglers", |r, o| write!(o, "{}", r.stragglers)),
    ("quorum", |r, o| write!(o, "{}", r.quorum)),
    ("quorum_shortfall", |r, o| write!(o, "{}", r.quorum_shortfall)),
    ("upload_retries", |r, o| write!(o, "{}", r.upload_retries)),
    ("recovered_uploads", |r, o| write!(o, "{}", r.recovered_uploads)),
    ("escalated_jobs", |r, o| write!(o, "{}", r.escalated_jobs)),
    ("quarantined", |r, o| write!(o, "{}", r.quarantined)),
    ("churn_arrivals", |r, o| write!(o, "{}", r.churn_arrivals)),
    ("churn_departures", |r, o| write!(o, "{}", r.churn_departures)),
    ("chaos_dropped", |r, o| write!(o, "{}", r.chaos_dropped)),
    ("chaos_delayed", |r, o| write!(o, "{}", r.chaos_delayed)),
    ("chaos_duplicated", |r, o| write!(o, "{}", r.chaos_duplicated)),
    ("chaos_reordered", |r, o| write!(o, "{}", r.chaos_reordered)),
    ("chaos_partition_held", |r, o| write!(o, "{}", r.chaos_partition_held)),
    ("suspected", |r, o| write!(o, "{}", r.suspected)),
    ("expired", |r, o| write!(o, "{}", r.expired)),
    ("healed", |r, o| write!(o, "{}", r.healed)),
    ("shards", |r, o| write!(o, "{}", r.shards)),
    ("shard_shortfalls", |r, o| write!(o, "{}", r.shard_shortfalls)),
    ("wire_bytes", |r, o| write!(o, "{}", r.wire_bytes)),
    ("wire_raw_bytes", |r, o| write!(o, "{}", r.wire_raw_bytes)),
    ("phase_none", |r, o| write!(o, "{}", r.phase_counts[0])),
    ("phase_random", |r, o| write!(o, "{}", r.phase_counts[1])),
    ("phase_pareto", |r, o| write!(o, "{}", r.phase_counts[2])),
    ("phase_exploit", |r, o| write!(o, "{}", r.phase_counts[3])),
    // The round's worst per-client suggest time: the MBO overhead on the
    // critical path (Fig. 13's quantity).
    ("suggest_ms", |r, o| write!(o, "{:.3}", r.suggest_ms.max)),
    ("test_accuracy", |r, o| write!(o, "{:.4}", r.test_accuracy)),
];

/// Accumulates per-round fleet statistics over a run and renders them as
/// CSV (one row per round, same conventions as `results/*.csv`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetMetrics {
    rounds: Vec<FleetRoundStats>,
}

impl FleetMetrics {
    /// An empty aggregator.
    pub fn new() -> Self {
        FleetMetrics::default()
    }

    /// Records one round and returns its stats, for the columns outcomes
    /// cannot fill (churn, chaos, liveness, shards and wire bytes come
    /// from the control plane).
    pub fn record(
        &mut self,
        record: &RoundRecord,
        outcomes: &[ClientOutcome],
    ) -> &mut FleetRoundStats {
        self.rounds
            .push(FleetRoundStats::from_round(record, outcomes));
        self.rounds.last_mut().expect("a round was just pushed")
    }

    /// The per-round statistics recorded so far.
    pub fn rounds(&self) -> &[FleetRoundStats] {
        &self.rounds
    }

    /// Mean deadline-miss rate across recorded rounds.
    pub fn mean_miss_rate(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds
            .iter()
            .map(|r| r.deadline_miss_rate)
            .sum::<f64>()
            / self.rounds.len() as f64
    }

    /// Rounds that produced zero aggregated updates — every joule spent
    /// for no global-model progress (the failure mode the recovery layer
    /// exists to prevent).
    pub fn wasted_rounds(&self) -> usize {
        self.rounds.iter().filter(|r| r.aggregated == 0).count()
    }

    /// Mean aggregated updates per recorded round.
    pub fn mean_aggregated_per_round(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.aggregated).sum::<usize>() as f64 / self.rounds.len() as f64
    }

    /// Rounds that fell short of their aggregation quorum.
    pub fn quorum_shortfall_rounds(&self) -> usize {
        self.rounds
            .iter()
            .filter(|r| r.quorum_shortfall > 0)
            .count()
    }

    /// Total uploads recovered by retries across the run.
    pub fn recovered_uploads(&self) -> usize {
        self.rounds.iter().map(|r| r.recovered_uploads).sum()
    }

    /// Total jobs escalated to `x_max` by mid-round guardians.
    pub fn escalated_jobs(&self) -> u64 {
        self.rounds.iter().map(|r| r.escalated_jobs).sum()
    }

    /// Total churn arrivals across recorded rounds.
    pub fn churn_arrivals(&self) -> usize {
        self.rounds.iter().map(|r| r.churn_arrivals).sum()
    }

    /// Total churn departures across recorded rounds.
    pub fn churn_departures(&self) -> usize {
        self.rounds.iter().map(|r| r.churn_departures).sum()
    }

    /// Rounds in which at least one shard closed below its local quorum.
    pub fn shard_shortfall_rounds(&self) -> usize {
        self.rounds
            .iter()
            .filter(|r| r.shard_shortfalls > 0)
            .count()
    }

    /// Total compressed uplink bytes across recorded rounds.
    pub fn wire_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.wire_bytes).sum()
    }

    /// Total uncompressed-equivalent uplink bytes across recorded rounds.
    pub fn wire_raw_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.wire_raw_bytes).sum()
    }

    /// Total updates lost on the wire across recorded rounds.
    pub fn chaos_dropped(&self) -> usize {
        self.rounds.iter().map(|r| r.chaos_dropped).sum()
    }

    /// Total liveness suspicions across recorded rounds.
    pub fn suspected(&self) -> usize {
        self.rounds.iter().map(|r| r.suspected).sum()
    }

    /// Renders all recorded rounds as CSV: the header row, then one row
    /// per round, both from one column table. Formatting is
    /// fixed-precision, so two runs with identical traces produce
    /// byte-identical files — the artifact the determinism acceptance
    /// check diffs.
    pub fn to_csv(&self) -> String {
        let mut out = COLUMNS.map(|(name, _)| name).join(",");
        out.push('\n');
        for r in &self.rounds {
            for (i, (_, cell)) in COLUMNS.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                cell(r, &mut out).expect("formatting into a String cannot fail");
            }
            out.push('\n');
        }
        out
    }

    /// Writes the CSV to `path` crash-safely (temp file + rename),
    /// creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        write_atomic(path, &self.to_csv())
    }
}

/// Crash-safe file export: write `contents` to a sibling temp file,
/// fsync it, rename it over `path`, then fsync the parent directory.
/// Rename is atomic on POSIX filesystems and the two fsyncs make the
/// result *durable*: after `write_atomic` returns, a power loss leaves
/// either the previous artifact or the complete new one — never a
/// truncated hybrid, and never a rename the directory forgot. Parent
/// directories are created as needed and the temp file is cleaned up if
/// the rename fails.
///
/// The temp file is always a *sibling* of `path` (same directory, hence
/// same filesystem), so the rename can never cross a device boundary for
/// a writable target directory. If a cross-device rename still surfaces
/// (e.g. `path`'s directory is itself a bind-mount boundary), it comes
/// back as a typed [`io::Error`] naming both paths instead of a panic.
///
/// # Errors
///
/// Propagates filesystem errors as typed [`io::Error`]s; never panics.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => {
            fs::create_dir_all(p)?;
            p.to_path_buf()
        }
        _ => PathBuf::from("."),
    };
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("artifact path has no file name: {}", path.display()),
        )
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        // Contents must be on disk *before* the rename publishes them,
        // or a crash could expose a complete-looking but empty file.
        f.sync_all()?;
    }
    match fs::rename(&tmp, path) {
        Ok(()) => {
            // The rename itself lives in the directory entry; fsync the
            // directory so the new name survives power loss too.
            fs::File::open(&parent).and_then(|d| d.sync_all())?;
            Ok(())
        }
        Err(e) => {
            // Best-effort cleanup; the rename error is the one worth
            // surfacing.
            let _ = fs::remove_file(&tmp);
            // EXDEV (cross-device link): give the caller an actionable
            // message instead of a bare OS error.
            if e.raw_os_error() == Some(18) {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    format!(
                        "write_atomic: rename {} -> {} crosses a filesystem boundary; \
                         atomic publication needs both paths on one device ({e})",
                        tmp.display(),
                        path.display()
                    ),
                ));
            }
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bofl_fl::client::ClientRoundResult;

    fn outcome(id: usize, energy: f64, duration: f64, met: bool) -> ClientOutcome {
        ClientOutcome {
            client_id: id,
            result: ClientRoundResult {
                parameters: vec![0.0],
                samples: 10,
                deadline_met: met,
                energy_j: energy,
                duration_s: duration,
                last_loss: 0.5,
                phase: Some(Phase::Exploitation),
                escalated_jobs: 0,
                quarantined: 0,
                suggest_ms: 0.0,
            },
            dropped: false,
            straggler_factor: 1.0,
            upload_failed: false,
            upload_attempts: 1,
            late: false,
        }
    }

    fn record(round: usize) -> RoundRecord {
        RoundRecord {
            round,
            selected: vec![0, 1, 2],
            aggregated: vec![0, 1],
            deadline_s: 10.0,
            quorum: 0,
            quorum_shortfall: 0,
            energy_j: 60.0,
            test_accuracy: 0.8,
            test_loss: 0.4,
        }
    }

    #[test]
    fn distribution_summary() {
        let d = Distribution::of(&[3.0, 1.0, 2.0]);
        assert_eq!(d.count, 3);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.max, 3.0);
        assert!((d.mean() - 2.0).abs() < 1e-12);
        assert_eq!(d.p95, 3.0);
        assert_eq!(Distribution::of(&[]), Distribution::default());
    }

    #[test]
    fn round_stats_aggregate_outcomes() {
        let outcomes = vec![
            outcome(0, 10.0, 5.0, true),
            outcome(1, 20.0, 6.0, true),
            outcome(2, 30.0, 12.0, false),
        ];
        let s = FleetRoundStats::from_round(&record(0), &outcomes);
        assert_eq!(s.selected, 3);
        assert_eq!(s.aggregated, 2);
        assert!((s.energy_j.sum - 60.0).abs() < 1e-12);
        assert!((s.deadline_miss_rate - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.phase_counts, [0, 0, 0, 3]);
        assert_eq!(s.stragglers, 0);
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "debug_assert only fires in debug builds"
    )]
    #[should_panic(expected = "distribution samples must be finite")]
    fn distribution_rejects_nan_in_debug() {
        let _ = Distribution::of(&[1.0, f64::NAN]);
    }

    #[test]
    fn recovery_counters_surface_in_stats_and_csv() {
        let mut saved = outcome(0, 10.0, 5.0, true);
        saved.upload_attempts = 3; // failed twice, third attempt delivered
        let mut lost = outcome(1, 20.0, 6.0, true);
        lost.upload_failed = true;
        lost.upload_attempts = 2;
        let mut escalated = outcome(2, 30.0, 12.0, false);
        escalated.result.escalated_jobs = 4;
        escalated.result.quarantined = 1;
        escalated.result.suggest_ms = 7.25;
        let mut rec = record(0);
        rec.quorum = 3;
        rec.quorum_shortfall = 1;
        let s = FleetRoundStats::from_round(&rec, &[saved, lost, escalated]);
        assert_eq!(s.upload_retries, 3);
        assert_eq!(s.recovered_uploads, 1);
        assert_eq!(s.quorum, 3);
        assert_eq!(s.quorum_shortfall, 1);
        assert_eq!(s.escalated_jobs, 4);
        assert_eq!(s.quarantined, 1);
        assert_eq!(s.suggest_ms.max, 7.25);
        let mut m = FleetMetrics::new();
        m.rounds.push(s);
        assert_eq!(m.quorum_shortfall_rounds(), 1);
        assert_eq!(m.recovered_uploads(), 1);
        assert_eq!(m.escalated_jobs(), 4);
        assert_eq!(m.wasted_rounds(), 0);
        assert!((m.mean_aggregated_per_round() - 2.0).abs() < 1e-12);
        let csv = m.to_csv();
        assert_eq!(
            csv.lines().nth(1).unwrap().split(',').count(),
            COLUMNS.len()
        );
        assert!(csv.lines().next().unwrap().contains("recovered_uploads"));
        assert!(csv.lines().next().unwrap().contains("suggest_ms"));
        assert!(csv.lines().nth(1).unwrap().contains("7.250"));
    }

    #[test]
    fn churn_annotation_surfaces_in_stats_and_csv() {
        let mut m = FleetMetrics::new();
        m.record(&record(0), &[outcome(0, 10.0, 5.0, true)]);
        let s = m.record(&record(1), &[outcome(1, 12.0, 5.5, true)]);
        (s.churn_arrivals, s.churn_departures) = (2, 3);
        assert_eq!(m.rounds()[0].churn_arrivals, 0); // round 1 was the one annotated
        assert_eq!(m.churn_arrivals(), 2);
        assert_eq!(m.churn_departures(), 3);
        let csv = m.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(header.contains("churn_arrivals"));
        assert!(header.contains("churn_departures"));
        let cols = header.split(',').count();
        assert!(csv.lines().skip(1).all(|l| l.split(',').count() == cols));
    }

    #[test]
    fn chaos_and_liveness_annotations_surface_in_csv() {
        let mut m = FleetMetrics::new();
        let s = m.record(&record(0), &[outcome(0, 10.0, 5.0, true)]);
        (s.chaos_dropped, s.chaos_delayed, s.chaos_duplicated) = (3, 5, 1);
        (s.chaos_reordered, s.chaos_partition_held) = (2, 4);
        (s.suspected, s.expired, s.healed) = (6, 2, 4);
        assert_eq!(m.chaos_dropped(), 3);
        assert_eq!(m.suspected(), 6);
        let csv = m.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(header.contains("chaos_partition_held"));
        assert!(header.contains(",suspected,expired,healed,"));
        let cols = header.split(',').count();
        assert!(csv.lines().skip(1).all(|l| l.split(',').count() == cols));
    }

    #[test]
    fn shard_and_wire_annotations_surface_in_csv() {
        let mut m = FleetMetrics::new();
        let s = m.record(&record(0), &[outcome(0, 10.0, 5.0, true)]);
        (s.shards, s.shard_shortfalls) = (16, 2);
        (s.wire_bytes, s.wire_raw_bytes) = (1_024, 8_192);
        assert_eq!(m.shard_shortfall_rounds(), 1);
        assert_eq!(m.wire_bytes(), 1_024);
        assert_eq!(m.wire_raw_bytes(), 8_192);
        let csv = m.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(header.contains(",shards,shard_shortfalls,wire_bytes,wire_raw_bytes,"));
        let cols = header.split(',').count();
        assert!(csv.lines().skip(1).all(|l| l.split(',').count() == cols));
    }

    #[test]
    fn atomic_write_lands_contents_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!(
            "bofl_atomic_write_{}_{}",
            std::process::id(),
            0x5eed_u32
        ));
        let path = dir.join("nested").join("metrics.csv");
        write_atomic(&path, "a,b\n1,2\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        // Overwrite goes through the same temp-then-rename path.
        write_atomic(&path, "a,b\n3,4\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "a,b\n3,4\n");
        let leftovers: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind");
        // A path with no file name is a typed error, not a panic.
        let err = write_atomic(Path::new("/"), "x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn csv_is_stable_and_well_formed() {
        let mut m = FleetMetrics::new();
        m.record(&record(0), &[outcome(0, 10.0, 5.0, true)]);
        m.record(&record(1), &[outcome(1, 12.0, 5.5, true)]);
        let csv = m.to_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert_eq!(line.split(',').count(), COLUMNS.len(), "ragged row: {line}");
        }
        let mut names = COLUMNS.map(|(name, _)| name);
        names.sort_unstable();
        assert!(names.windows(2).all(|w| w[0] != w[1]), "duplicate column");
        // Identical inputs render identical bytes.
        assert_eq!(csv, m.clone().to_csv());
        assert_eq!(m.mean_miss_rate(), 0.0);
    }
}
