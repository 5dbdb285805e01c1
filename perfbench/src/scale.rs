//! `scale_1m`: the sharded scale simulation over a registry of one
//! million clients, 4,096-client cohorts, 64 shards, int8 uplinks and
//! the default fault mix. It is the only workload that runs the sampler
//! and the sharded fold over a registry far larger than cache.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bofl_fleet::scale::ScaleConfig;
use bofl_fleet::{FaultPlan, Int8Quantizer, ScaleSimulation, ShardPlan, UniformSampler};

use crate::episode::Episode;
use crate::probe::{MarkingSampler, Probe, TimedCompressor};

const FLEET: usize = 1_000_000;
const COHORT: usize = 4_096;
const ROUNDS: usize = 100;

/// A built simulation and the sampler's round marks.
pub struct Input {
    sim: ScaleSimulation,
    marks: Arc<Mutex<Vec<Instant>>>,
}

/// Materializes the 1M-client registry and installs the sampler (and,
/// traced, compressor) probes.
pub fn setup(seed: u64, workers: usize, probe: Option<&Arc<Probe>>) -> Input {
    let config = ScaleConfig {
        fleet_size: FLEET,
        cohort: COHORT,
        rounds: ROUNDS,
        dim: 64,
        seed: crate::mix(seed, 21),
        shard_plan: ShardPlan::with_shards(64),
        workers,
        ..ScaleConfig::default()
    };
    let marks = Arc::new(Mutex::new(Vec::with_capacity(ROUNDS)));
    let builder = ScaleSimulation::builder(config)
        .sampler(MarkingSampler::new(
            UniformSampler,
            probe.cloned(),
            Arc::clone(&marks),
        ))
        .faults(
            FaultPlan::new(crate::mix(seed, 22))
                .with_dropout(0.02)
                .with_stragglers(0.08, (1.2, 3.0))
                .with_upload_failures(0.03),
        );
    let builder = match probe {
        None => builder.compressor(Int8Quantizer),
        Some(p) => builder.compressor(TimedCompressor::new(Int8Quantizer, Arc::clone(p))),
    };
    Input {
        sim: builder.build(),
        marks,
    }
}

/// Runs all rounds; a round lasts from one `sample` call to the next.
pub fn run(
    mut input: Input,
    workers: usize,
    probe: Option<&Arc<Probe>>,
) -> Result<Episode, String> {
    let mut ep = Episode::default();
    crate::heap::reset_peak();
    let start = Instant::now();
    let cpu0 = crate::cpu::process_s();
    let report = input.sim.run();
    let end = Instant::now();
    ep.wall_s = (end - start).as_secs_f64();
    ep.cpu_s = crate::cpu::process_s() - cpu0;
    ep.peak_heap_mb = crate::heap::peak_mb();

    let mut marks = input
        .marks
        .lock()
        .map_err(|_| "round marks poisoned")?
        .clone();
    if marks.len() != ROUNDS {
        return Err(format!(
            "sampler ran {} times for {ROUNDS} rounds",
            marks.len()
        ));
    }
    marks.push(end);
    ep.round_ms = marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();

    for r in &report.trace {
        ep.client_rounds += u64::from(r.selected);
        ep.deadline_attempted += u64::from(r.selected);
        ep.deadline_met += u64::from(r.selected - r.missed_deadline);
        ep.updates_selected += u64::from(r.selected);
        ep.updates_delivered += u64::from(r.aggregated);
    }
    ep.energy_j = report.total_energy_j();
    ep.energy_rounds = ep.client_rounds;
    if ep.client_rounds != (ROUNDS * COHORT) as u64 {
        return Err(format!("{} client-rounds selected", ep.client_rounds));
    }
    ep.fingerprint = vec![
        ("model_hash", report.model_hash()),
        ("trace_hash", report.trace_hash()),
        ("wire_bytes", report.wire_bytes()),
        ("aggregated", ep.updates_delivered),
    ];
    ep.notes = vec![("compression_ratio", report.compression_ratio(), "x")];
    if let Some(probe) = probe {
        let wall_ms = ep.wall_s * 1e3;
        let sample_ms = probe.sample.ms();
        let compress_ms = probe.compress.ms();
        ep.layers.extend([
            ("fleet.sample_ms", sample_ms),
            ("fleet.compress_ms", compress_ms),
            ("fleet.compress_calls", probe.compress.calls() as f64),
            // Compression runs on every worker at once and its time is
            // summed over them; dividing by the workers puts it on the
            // wall-clock scale, so the remainder is not driven negative.
            (
                "fleet.fold_other_ms",
                wall_ms - sample_ms - compress_ms / workers as f64,
            ),
            ("fleet.wire_bytes", report.wire_bytes() as f64),
        ]);
    }
    Ok(ep)
}
