//! Golden pins on cohort selection: exact hashes of the cohorts the
//! samplers choose and of a small scale run built on them. The values
//! were recorded with the earlier heap-based selection kernel, so a
//! speed-up that changes even one cohort member fails here loudly — a
//! faster sampler that picks different clients is a regression.
//!
//! The registry has 2^18 clients, enough for the selection scan to split
//! across cores on a multi-core host, so the chunked path is pinned too.
//! The error-feedback run's hashes were recorded with the library
//! `f64::floor`/`f64::round` calls in the quantizer and the fold, so they
//! also pin the inline replacements of those calls.

use bofl_fleet::prelude::*;
use bofl_fleet::scale::ScaleConfig;

const FLEET: usize = 1 << 18;
const COHORT: usize = 1024;

fn scale_config(workers: usize) -> ScaleConfig {
    ScaleConfig {
        fleet_size: FLEET,
        cohort: COHORT,
        rounds: 20,
        shard_plan: ShardPlan::with_shards(8),
        workers,
        ..ScaleConfig::default()
    }
}

/// FNV-1a over `sampler`'s cohorts (ids as little-endian bytes) for
/// rounds `0..50` on a 2^18-client scale registry.
fn cohort_hash(sampler: &dyn ClientSampler) -> u64 {
    let sim = ScaleSimulation::builder(scale_config(1)).build();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut out = Vec::new();
    for round in 0..50 {
        sampler.sample(sim.clients(), COHORT, round, 42, &mut out);
        assert_eq!(out.len(), COHORT);
        for b in out.iter().flat_map(|id| id.to_le_bytes()) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    hash
}

#[test]
fn uniform_cohorts_match_the_pinned_hash() {
    assert_eq!(cohort_hash(&UniformSampler), 0x5dc5_d727_f388_740a);
}

#[test]
fn weighted_cohorts_match_the_pinned_hashes() {
    assert_eq!(
        cohort_hash(&EnergyAwareSampler::default()),
        0x7a81_685a_11b4_2a74
    );
    assert_eq!(
        cohort_hash(&LossStalenessSampler::default()),
        0x14fb_b6a2_3e75_35c0
    );
}

#[test]
fn scale_run_matches_the_pinned_hashes_at_any_worker_count() {
    for workers in [1usize, 2] {
        let report = ScaleSimulation::builder(scale_config(workers))
            .build()
            .run();
        assert_eq!(
            report.trace_hash(),
            0xb20f_1cf8_59b6_069c,
            "trace at workers={workers}"
        );
        assert_eq!(
            report.model_hash(),
            0xd8cd_1701_30ca_1176,
            "model at workers={workers}"
        );
    }
}

/// The same run with per-client error-feedback residuals, which pins the
/// residual branch of the int8 quantizer at scale.
#[test]
fn error_feedback_scale_run_matches_the_pinned_hashes_at_any_worker_count() {
    for workers in [1usize, 2] {
        let report = ScaleSimulation::builder(ScaleConfig {
            error_feedback: true,
            ..scale_config(workers)
        })
        .build()
        .run();
        assert_eq!(
            report.trace_hash(),
            0xc6a0_23a8_c10f_c336,
            "trace at workers={workers}"
        );
        assert_eq!(
            report.model_hash(),
            0xf4f0_bf2f_60ba_4a36,
            "model at workers={workers}"
        );
    }
}
