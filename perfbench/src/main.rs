//! End-to-end and per-layer benchmark of the BoFL reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_pace --seed 2022 --trace 0
//! ```
//!
//! A run measures one workload's *episodes* — each a full pass over one
//! draw of inputs generated from `--seed` — checks every episode's
//! outputs, and prints a table for people followed by one JSON line: with
//! `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
//! metrics of draws each run untraced once and traced twice. Workloads,
//! metrics and the layer → end-to-end map are described in
//! `perfbench/README.md`.

mod cpu;
mod episode;
mod fleet;
mod heap;
mod paper_pace;
mod probe;
mod scale;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use episode::{median, percentile, Episode};
use probe::Probe;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// The workload seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 2022;
/// Shortest set-up block: each episode's inputs are built back to back
/// until the block lasts this long, so no set-up figure rests on a
/// sub-millisecond reading.
const SETUP_BLOCK_S: f64 = 0.05;
/// Worker threads and socket lanes, capped by the host's cores.
const MAX_WORKERS: usize = 2;
/// Salt of the per-draw seeds derived from `--seed`.
const DRAW_SALT: u64 = 0xE915_0DE5;

/// End-to-end metrics: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("client_rounds_per_s", "1/s"),
    ("cpu_ms_per_client_round", "ms"),
    ("round_ms.p50", "ms"),
    ("round_ms.p90", "ms"),
    ("energy_j_per_client_round", "J"),
    ("deadline_met_pct", "%"),
    ("update_delivered_pct", "%"),
    ("setup_heap_mb", "MB"),
];

/// Per-layer metrics: name and unit. Values are per episode; a layer a
/// workload bypasses reads 0. `count/…` and `bytes/…` metrics must repeat
/// exactly across episodes.
const PER_LAYER: &[(&str, &str)] = &[
    ("mobo.update_ms", "ms/episode"),
    ("mobo.updates", "count/episode"),
    ("ilp.plan_ms", "ms/episode"),
    ("core.explore_ms", "ms/episode"),
    ("device.job_ms", "ms/episode"),
    ("device.jobs", "count/episode"),
    ("fl.job_ms", "ms/episode"),
    ("fl.jobs", "count/episode"),
    ("fl.server_ms", "ms/episode"),
    ("fleet.worker_idle_share", "share"),
    ("control.carry_ms", "ms/episode"),
    ("control.carried", "count/episode"),
    ("control.wire_bytes", "bytes/episode"),
    ("control.events", "count/episode"),
    ("control.wal_records", "count/episode"),
    ("control.wal_append_us.p50", "us/append"),
    ("fleet.sample_ms", "ms/episode"),
    ("fleet.compress_ms", "ms/episode"),
    ("fleet.compress_calls", "count/episode"),
    ("fleet.fold_other_ms", "ms/episode"),
    ("fleet.wire_bytes", "bytes/episode"),
    ("heap.peak_mb", "MB"),
    ("trace.wall_ms", "ms/episode"),
    ("trace.overhead_pct", "%"),
];

/// SplitMix64 of `seed ^ salt`: derives independent input seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperPace,
    FleetControl,
    Scale1m,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PaperPace,
        Workload::FleetControl,
        Workload::Scale1m,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperPace => "paper_pace",
            Workload::FleetControl => "fleet_control",
            Workload::Scale1m => "scale_1m",
        }
    }

    /// Input draws a run measures, each with its own inputs derived from
    /// `--seed`, so a run averages over the cost differences between
    /// inputs. The count is fixed, so a seed always measures the same
    /// inputs.
    fn draws(self) -> usize {
        match self {
            Workload::PaperPace => 4,
            Workload::FleetControl => 3,
            Workload::Scale1m => 2,
        }
    }

    /// Untraced runs of each input draw. Only `scale_1m`, whose episodes
    /// are short, repeats its inputs: each round then takes its fastest
    /// repetition, which filters load from other tenants. The other
    /// workloads spend their time on more draws instead.
    fn repeats(self) -> usize {
        match self {
            Workload::Scale1m => 7,
            _ => 1,
        }
    }
}

/// A workload's built inputs.
enum Input {
    Pace(Vec<paper_pace::Pair>),
    Fleet(fleet::Input),
    Scale(scale::Input),
}

struct Run {
    workload: Workload,
    seed: u64,
    trace: bool,
    workers: usize,
    work_dir: PathBuf,
}

impl Run {
    /// The seed of input draw `k`.
    fn draw_seed(&self, k: usize) -> u64 {
        mix(self.seed, DRAW_SALT + k as u64)
    }

    fn setup(&self, k: usize, probe: Option<&Arc<Probe>>) -> Input {
        let seed = self.draw_seed(k);
        match self.workload {
            Workload::PaperPace => Input::Pace(paper_pace::setup(seed)),
            Workload::FleetControl => {
                Input::Fleet(fleet::setup(seed, self.workers, &self.work_dir, probe))
            }
            Workload::Scale1m => Input::Scale(scale::setup(seed, self.workers, probe)),
        }
    }

    /// Builds draw `k`'s untraced inputs back to back until the block
    /// lasts [`SETUP_BLOCK_S`]. Returns the last build, the time per
    /// set-up in seconds, and the heap that build holds, MiB.
    fn timed_setup(&self, k: usize) -> (Input, f64, f64) {
        let (mut busy, mut built) = (0.0, 0u32);
        loop {
            let heap_before = heap::live_mb();
            let start = Instant::now();
            let input = self.setup(k, None);
            busy += start.elapsed().as_secs_f64();
            built += 1;
            if busy >= SETUP_BLOCK_S {
                return (
                    input,
                    busy / f64::from(built),
                    heap::live_mb() - heap_before,
                );
            }
        }
    }

    /// Runs one episode on `input`. `first` marks a draw's first episode,
    /// which also runs the draw's reference (the Oracle on `paper_pace`).
    fn episode(
        &self,
        input: Input,
        first: bool,
        probe: Option<&Arc<Probe>>,
    ) -> Result<Episode, String> {
        let mut episode = match input {
            Input::Pace(pairs) => paper_pace::run(pairs, first, probe)?,
            Input::Fleet(input) => fleet::run(input, self.workers, &self.work_dir, probe)?,
            Input::Scale(input) => scale::run(input, self.workers, probe)?,
        };
        if probe.is_some() {
            episode.layers.insert("trace.wall_ms", episode.wall_s * 1e3);
            episode.layers.insert("heap.peak_mb", episode.peak_heap_mb);
        }
        Ok(episode)
    }

    /// A traced episode of draw `k`, with a fresh probe.
    fn traced_episode(&self, k: usize) -> Result<Episode, String> {
        let probe = Probe::shared();
        let input = self.setup(k, Some(&probe));
        self.episode(input, false, Some(&probe))
    }
}

/// All runs of one draw, traced or not, must agree exactly on the outcome
/// fingerprints, and its traced runs on the layer counts.
fn check_repeats(runs: &[&Episode]) -> Result<(), String> {
    let first = runs[0];
    for ep in runs {
        if ep.fingerprint != first.fingerprint {
            return Err(format!(
                "outcomes differ between repetitions: {:?} vs {:?}",
                first.fingerprint, ep.fingerprint
            ));
        }
    }
    let traced: Vec<&Episode> = runs
        .iter()
        .copied()
        .filter(|ep| !ep.layers.is_empty())
        .collect();
    let Some(first) = traced.first() else {
        return Ok(());
    };
    for &(name, unit) in PER_LAYER {
        if !unit.starts_with("count") && !unit.starts_with("bytes") {
            continue;
        }
        let want = first.layers.get(name);
        if let Some(ep) = traced.iter().find(|ep| ep.layers.get(name) != want) {
            return Err(format!(
                "layer count {name} differs between repetitions: {want:?} vs {:?}",
                ep.layers.get(name)
            ));
        }
    }
    Ok(())
}

/// Each step's fastest repetition over runs of the same inputs.
fn fastest(repeats: &[Episode], steps: impl Fn(&Episode) -> &[f64]) -> Vec<f64> {
    (0..steps(&repeats[0]).len())
        .map(|i| {
            repeats
                .iter()
                .map(|ep| steps(ep)[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// End-to-end metrics of the untraced episodes, `draws[k]` holding the
/// repetitions of draw `k`, and `setups` the per-set-up times of every
/// episode's set-up block. Timings are robust to the odd slow draw and to
/// other tenants' load: each step takes its fastest repetition, each part
/// (see [`Episode::parts`]) its median over the draws, the round
/// percentiles pool every draw's rounds, and set-up takes its fastest
/// block.
fn end_to_end(draws: &[Vec<Episode>], setups: &[f64]) -> Vec<(&'static str, f64)> {
    let firsts: Vec<&Episode> = draws.iter().map(|d| &d[0]).collect();
    let sum = |f: fn(&Episode) -> f64| firsts.iter().map(|ep| f(ep)).sum::<f64>();
    let part_ms: Vec<Vec<f64>> = draws
        .iter()
        .map(|d| {
            (0..d[0].steps().len())
                .map(|p| fastest(d, |ep| &ep.steps()[p]).iter().sum())
                .collect()
        })
        .collect();
    let typical_ms: f64 = (0..part_ms[0].len())
        .map(|p| median(&part_ms.iter().map(|d| d[p]).collect::<Vec<_>>()))
        .sum();
    let cpu_s: Vec<f64> = draws
        .iter()
        .map(|d| d.iter().map(|ep| ep.cpu_s).fold(f64::INFINITY, f64::min))
        .collect();
    let rounds: Vec<f64> = draws
        .iter()
        .flat_map(|d| fastest(d, |ep| &ep.round_ms))
        .collect();
    let client_rounds = sum(|ep| ep.client_rounds as f64) / draws.len() as f64;
    let heap: Vec<f64> = firsts.iter().map(|ep| ep.setup_heap_mb).collect();
    vec![
        (
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        ("client_rounds_per_s", client_rounds / (typical_ms / 1e3)),
        (
            "cpu_ms_per_client_round",
            median(&cpu_s) * 1e3 / client_rounds,
        ),
        ("round_ms.p50", percentile(&rounds, 50.0)),
        ("round_ms.p90", percentile(&rounds, 90.0)),
        (
            "energy_j_per_client_round",
            sum(|ep| ep.energy_j) / sum(|ep| ep.energy_rounds as f64),
        ),
        (
            "deadline_met_pct",
            100.0 * sum(|ep| ep.deadline_met as f64) / sum(|ep| ep.deadline_attempted as f64),
        ),
        (
            "update_delivered_pct",
            100.0 * sum(|ep| ep.updates_delivered as f64) / sum(|ep| ep.updates_selected as f64),
        ),
        ("setup_heap_mb", median(&heap)),
    ]
}

/// Per-layer metrics: the median over traced episodes, and the tracing
/// overhead against the untraced runs of the same inputs.
fn per_layer(plain: &[Episode], traced: &[Episode]) -> Vec<(&'static str, f64)> {
    let rate = |eps: &[Episode]| {
        eps.iter().map(|ep| ep.client_rounds as f64).sum::<f64>()
            / eps.iter().map(|ep| ep.wall_s).sum::<f64>()
    };
    let overhead = 100.0 * (1.0 - rate(traced) / rate(plain));
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = if name == "trace.overhead_pct" {
                overhead
            } else {
                let values: Vec<f64> = traced
                    .iter()
                    .map(|ep| ep.layers.get(name).copied().unwrap_or(0.0))
                    .collect();
                median(&values)
            };
            (name, value)
        })
        .collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn print_report(
    run: &Run,
    metrics: &[(&'static str, f64)],
    units: &[(&str, &str)],
    episodes: &[Episode],
    attempted: u64,
) {
    let runs = if run.trace {
        "untraced once and traced twice".to_string()
    } else {
        format!("run {}x", run.workload.repeats())
    };
    println!(
        "workload {} · seed {} · {} workers · input draws: {}, each {runs}",
        run.workload.name(),
        run.seed,
        run.workers,
        run.workload.draws(),
    );
    let unit_of = |name: &str| {
        units
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| *u)
    };
    for (name, value) in metrics {
        println!("  {name:<28} {value:>16.4} {}", unit_of(name));
    }
    if let Some(ep) = episodes.first() {
        for (name, value, unit) in &ep.notes {
            println!("  {name:<28} {value:>16.4} {unit}   (not gated, first episode)");
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*value),
                unit_of(name)
            )
        })
        .collect();
    // Any failed check aborts the run before this point, so a printed
    // result is always a correct one.
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn parse_args() -> Result<Run, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            // Accepted for callers that pass a time budget, and checked,
            // but the run's length is set by the workload's draw and
            // repeat counts, so a seed always measures the same inputs.
            "--seconds" => {
                value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    Ok(Run {
        workload,
        seed,
        trace,
        workers: cores.min(MAX_WORKERS),
        work_dir: target.join(format!("perfbench-work-{}", std::process::id())),
    })
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_pace|fleet_control|scale_1m> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&run.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run.work_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = measure(&run);
    std::fs::remove_dir_all(&run.work_dir).ok();
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", run.workload.name());
            ExitCode::FAILURE
        }
    }
}

fn measure(run: &Run) -> Result<(), String> {
    let draws = run.workload.draws();
    if run.trace {
        let mut plain = Vec::with_capacity(draws);
        let mut traced = Vec::with_capacity(2 * draws);
        for k in 0..draws {
            plain.push(run.episode(run.setup(k, None), true, None)?);
            let a = run.traced_episode(k)?;
            let b = run.traced_episode(k)?;
            check_repeats(&[&plain[k], &a, &b])?;
            traced.extend([a, b]);
        }
        let attempted = plain.iter().chain(&traced).map(|ep| ep.client_rounds).sum();
        print_report(
            run,
            &per_layer(&plain, &traced),
            PER_LAYER,
            &traced,
            attempted,
        );
        return Ok(());
    }
    // Repetitions of a draw run round-robin, so they sample the host's
    // load at different times; every episode's set-up is timed, so the
    // set-up blocks are spread over the run too.
    let mut runs: Vec<Vec<Episode>> = (0..draws).map(|_| Vec::new()).collect();
    let mut setups = Vec::new();
    for rep in 0..run.workload.repeats() {
        for (k, repeats) in runs.iter_mut().enumerate() {
            let (input, setup_s, heap_mb) = run.timed_setup(k);
            setups.push(setup_s);
            let mut episode = run.episode(input, rep == 0, None)?;
            episode.setup_heap_mb = heap_mb;
            repeats.push(episode);
        }
    }
    for repeats in &runs {
        check_repeats(&repeats.iter().collect::<Vec<_>>())?;
    }
    let metrics = end_to_end(&runs, &setups);
    let plain: Vec<Episode> = runs.into_iter().flatten().collect();
    let attempted = plain.iter().map(|ep| ep.client_rounds).sum();
    print_report(run, &metrics, END_TO_END, &plain, attempted);
    Ok(())
}
