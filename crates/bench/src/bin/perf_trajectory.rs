//! Perf-trajectory harness: times the repo's hot paths directly and
//! writes a dated `results/BENCH_<date>.json` artifact so perf can be
//! tracked commit over commit.
//!
//! Workloads:
//!
//! - `mobo/suggest_{cold,warm}` — the surrogate hot path (fit both GPs,
//!   sequential-greedy EHVI scan over 512 candidates, batch of 8), cold
//!   vs hyperparameter-cache-warm;
//! - `round/event_driven` — a faulted fleet simulation through
//!   `bofl-control`'s `EventDrivenEngine` (lifecycle journal + quorum
//!   closes) on the virtual wire;
//! - `round/socket_transport` — the same run with every update carried
//!   over real localhost TCP (framed, checksummed, acked), isolating the
//!   socket stack's overhead; each `round/*` entry records its transport
//!   kind in the artifact so regressions can be attributed to the wire;
//! - `round/sharded_1m_clients` — the hierarchical aggregation headline:
//!   a 1,000,000-client registered fleet, 4,096-client cohorts, 100
//!   rounds through 64 aggregator shards with int8-quantized uplinks and
//!   the full fault stack.
//!
//! ```sh
//! cargo run --release -p bofl-bench --bin perf_trajectory
//! ```

use std::path::PathBuf;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use bofl_bench::host_cores;
use bofl_control::{ControlSimulation, SocketTransport};
use bofl_fl::server::{AggregationPolicy, FederationConfig};
use bofl_fl::RetryPolicy;
use bofl_fleet::scale::ScaleConfig;
use bofl_fleet::{FaultPlan, FleetSpec, Int8Quantizer, ScaleSimulation, ShardPlan, UniformSampler};
use bofl_mobo::{MoboConfig, MoboEngine, Observation, SobolSequence};

/// Wall-clock repetitions per workload; the median is the headline.
const REPS: usize = 5;

struct BenchResult {
    name: String,
    reps: usize,
    median_ms: f64,
    min_ms: f64,
    mean_ms: f64,
    /// The wire the workload's updates travelled over (`round/*`
    /// workloads only), so the artifact attributes perf to the transport.
    transport: Option<&'static str>,
}

/// Tags the most recent result with its transport kind.
fn tag_transport(results: &mut [BenchResult], transport: &'static str) {
    results
        .last_mut()
        .expect("tag_transport follows a bench() call")
        .transport = Some(transport);
}

/// Times `f` REPS times (after one untimed warmup) and records the stats.
fn bench(name: &str, results: &mut Vec<BenchResult>, f: impl FnMut()) {
    bench_reps(name, REPS, results, f);
}

/// [`bench`] with an explicit repetition count, for workloads whose
/// single run is long enough to make REPS wasteful.
fn bench_reps(name: &str, reps: usize, results: &mut Vec<BenchResult>, mut f: impl FnMut()) {
    f(); // warmup: fault in code paths and allocator arenas
    let mut samples_ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    samples_ms.sort_by(f64::total_cmp);
    let median_ms = samples_ms[samples_ms.len() / 2];
    let min_ms = samples_ms[0];
    let mean_ms = samples_ms.iter().sum::<f64>() / samples_ms.len() as f64;
    println!("{name:<42} median {median_ms:>9.2} ms  (min {min_ms:.2}, mean {mean_ms:.2})");
    results.push(BenchResult {
        name: name.to_string(),
        reps,
        median_ms,
        min_ms,
        mean_ms,
        transport: None,
    });
}

/// The surrogate hot path at 64 observations, the most any workload's
/// MBO data set reaches.
fn mobo_workloads(results: &mut Vec<BenchResult>) {
    let n = 64;
    let mut engine = MoboEngine::new(MoboConfig::default());
    let mut sobol = SobolSequence::new(3);
    for _ in 0..n {
        let x = sobol.next_point();
        let f0 = 2.0 + x[0] + 0.5 * (7.0 * x[1]).sin() + 0.2 * x[2];
        let f1 = 3.0 - x[0] + 0.4 * (5.0 * x[2]).cos() + 0.2 * x[1];
        engine.observe(Observation::new(x, [f0, f1])).unwrap();
    }
    let candidates: Vec<Vec<f64>> = (0..512).map(|_| sobol.next_point()).collect();
    bench(
        &format!("mobo/suggest_cold_{n}obs_512cand_k8"),
        results,
        || {
            let mut e = engine.clone();
            e.suggest(8, &candidates).unwrap();
        },
    );
    let mut warmed = engine.clone();
    warmed.suggest(8, &candidates).unwrap();
    bench(
        &format!("mobo/suggest_warm_{n}obs_512cand_k8"),
        results,
        || {
            let mut e = warmed.clone();
            e.suggest(8, &candidates).unwrap();
        },
    );
}

const FLEET_SEED: u64 = 2026;

fn round_config() -> FederationConfig {
    FederationConfig {
        clients_per_round: 8,
        rounds: 5,
        classes: 4,
        feature_dims: 8,
        seed: FLEET_SEED,
        aggregation: AggregationPolicy::recovery(),
        ..FederationConfig::default()
    }
}

fn round_faults() -> FaultPlan {
    FaultPlan::new(FLEET_SEED ^ 0xFA17)
        .with_stragglers(0.2, (1.5, 3.0))
        .with_upload_failures(0.1)
}

/// The same faulted 40-client, 5-round federation over both wires.
fn round_loop_workloads(results: &mut Vec<BenchResult>) {
    let spec = FleetSpec::mixed(40, FLEET_SEED);
    bench("round/event_driven_40c_5r_4w", results, || {
        ControlSimulation::builder(spec)
            .federation(round_config())
            .workers(4)
            .faults(round_faults().with_churn(0.05, 2))
            .retry(RetryPolicy::recovery())
            .build()
            .run();
    });
    tag_transport(results, "virtual");
    // The same run over real localhost TCP: every update framed,
    // checksummed and acked through four persistent lane connections.
    // The delta against the virtual wire is the socket stack's cost.
    bench("round/socket_transport_40c_5r_4w", results, || {
        ControlSimulation::builder(spec)
            .federation(round_config())
            .workers(4)
            .faults(round_faults().with_churn(0.05, 2))
            .retry(RetryPolicy::recovery())
            .transport(SocketTransport::in_process(4))
            .build()
            .run();
    });
    tag_transport(results, "socket");
}

/// The hierarchical-aggregation headline: one million registered
/// clients, 100 rounds, 64 shards, int8-quantized uplinks, the full
/// fault stack. One rep is a whole simulated deployment, so three reps
/// suffice for a stable median.
fn sharded_scale_workload(results: &mut Vec<BenchResult>) {
    let config = ScaleConfig {
        fleet_size: 1_000_000,
        cohort: 4_096,
        rounds: 100,
        dim: 64,
        seed: FLEET_SEED,
        shard_plan: ShardPlan::with_shards(64),
        workers: host_cores(),
        ..ScaleConfig::default()
    };
    bench_reps("round/sharded_1m_clients_100r_64s", 3, results, || {
        ScaleSimulation::builder(config)
            .sampler(UniformSampler)
            .compressor(Int8Quantizer)
            .faults(
                FaultPlan::new(FLEET_SEED ^ 0xFA17)
                    .with_dropout(0.02)
                    .with_stragglers(0.08, (1.2, 3.0))
                    .with_upload_failures(0.03),
            )
            .build()
            .run();
    });
}

/// Days-since-epoch → `YYYY-MM-DD` (Howard Hinnant's civil-date
/// algorithm); avoids any date dependency.
fn utc_date_string() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("system clock before 1970")
        .as_secs();
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Hand-rolled JSON: names are fixed slugs, numbers are finite — no
/// escaping needed (the workspace vendors no serde_json).
fn to_json(date: &str, cores: usize, results: &[BenchResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"bofl-perf-trajectory/v1\",\n");
    out.push_str(&format!("  \"date\": \"{date}\",\n"));
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        let transport = match r.transport {
            Some(t) => format!("\"transport\": \"{t}\", "),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"reps\": {}, {}\"median_ms\": {:.3}, \"min_ms\": {:.3}, \"mean_ms\": {:.3}}}{}\n",
            r.name,
            r.reps,
            transport,
            r.median_ms,
            r.min_ms,
            r.mean_ms,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let cores = host_cores();
    println!("perf trajectory: {REPS} reps/workload, {cores} cores\n");

    let mut results = Vec::new();
    mobo_workloads(&mut results);
    round_loop_workloads(&mut results);
    sharded_scale_workload(&mut results);

    let date = utc_date_string();
    let json = to_json(&date, cores, &results);
    // Anchor on the bench crate's manifest so the artifact lands in the
    // workspace's results/ regardless of the invocation directory.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results/");
    let path = dir.join(format!("BENCH_{date}.json"));
    std::fs::write(&path, &json).expect("write BENCH artifact");
    println!("\nwrote {}", path.canonicalize().unwrap_or(path).display());
}
