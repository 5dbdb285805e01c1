//! The hierarchical aggregator's headline guarantee, property-tested:
//! **sharding is execution geometry, never semantics**. For any seed, the
//! per-round trace and the final global model are byte-identical across
//! shard counts {1, 4, 16} × worker counts {1, 2, 8} — and the fixed-point
//! accumulator that makes this possible agrees with naive float averaging
//! to quantization precision. The compression seam rides the same
//! contract: encodings are pure functions of `(update, stream seed,
//! residual)`, and error feedback conserves the signal exactly.

use bofl_fl::server::{Federation, FederationConfig};
use bofl_fleet::compress::CompressedUpdate;
use bofl_fleet::prelude::*;
use bofl_fleet::scale::ScaleConfig;
use proptest::prelude::*;

fn scale_config(seed: u64, shards: usize, workers: usize, error_feedback: bool) -> ScaleConfig {
    ScaleConfig {
        fleet_size: 2_000,
        cohort: 128,
        rounds: 3,
        dim: 16,
        seed,
        shard_plan: ShardPlan::with_shards(shards),
        workers,
        error_feedback,
        ..ScaleConfig::default()
    }
}

fn run_scale(seed: u64, shards: usize, workers: usize, error_feedback: bool) -> ScaleReport {
    ScaleSimulation::builder(scale_config(seed, shards, workers, error_feedback))
        .sampler(LossStalenessSampler::default())
        .compressor(Int8Quantizer)
        .faults(
            FaultPlan::new(seed ^ 0xFA17)
                .with_dropout(0.1)
                .with_stragglers(0.15, (1.2, 2.5))
                .with_upload_failures(0.05),
        )
        .build()
        .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shards {1, 4, 16} × workers {1, 2, 8}: one reference run, eight
    /// challengers, every trace row and every model bit identical.
    #[test]
    fn scale_trace_and_model_are_shard_and_worker_invariant(
        seed in 0u64..1_000_000,
        error_feedback in prop::bool::ANY,
    ) {
        let reference = run_scale(seed, 1, 1, error_feedback);
        for shards in [1usize, 4, 16] {
            for workers in [1usize, 2, 8] {
                if (shards, workers) == (1, 1) {
                    continue;
                }
                let challenger = run_scale(seed, shards, workers, error_feedback);
                prop_assert_eq!(&challenger.trace, &reference.trace);
                prop_assert_eq!(
                    challenger.final_model.iter().map(|p| p.to_bits()).collect::<Vec<u64>>(),
                    reference.final_model.iter().map(|p| p.to_bits()).collect::<Vec<u64>>()
                );
            }
        }
    }

    /// The federation-level seam: a `Federation` with any shard plan
    /// reproduces the flat engine's history bit for bit.
    #[test]
    fn federation_history_is_shard_plan_invariant(seed in 0u64..1_000_000) {
        let run = |shards: Option<usize>| {
            let spec = FleetSpec::mixed(10, seed);
            let config = FederationConfig {
                num_clients: spec.num_clients,
                clients_per_round: 4,
                rounds: 2,
                classes: 3,
                feature_dims: 6,
                seed,
                ..FederationConfig::default()
            };
            let mut builder = Federation::builder(config)
                .device_factory(move |id| spec.device(id));
            if let Some(n) = shards {
                builder = builder.shard_plan(ShardPlan::with_shards(n));
            }
            let mut federation = builder.build();
            let mut metrics = FleetMetrics::new();
            let mut history = Vec::new();
            for round in 0..config.rounds {
                let (record, outcomes) = federation.run_round_detailed(round);
                metrics.record(&record, &outcomes);
                history.push(record);
            }
            (history, metrics.to_csv())
        };
        let flat = run(None);
        for shards in [1usize, 4, 16] {
            let sharded = run(Some(shards));
            prop_assert_eq!(&sharded.0, &flat.0);
            prop_assert_eq!(&sharded.1, &flat.1);
        }
    }

    /// Quantization is a pure function of `(update, stream seed)`: the
    /// same inputs give identical bytes, and the decoded error stays
    /// within one quantization step per entry.
    #[test]
    fn int8_roundtrip_is_deterministic_and_bounded(
        update in prop::collection::vec(-100.0f64..100.0, 1..64),
        seed in 0u64..u64::MAX,
    ) {
        let (mut a, mut b) = (CompressedUpdate::new(), CompressedUpdate::new());
        Int8Quantizer.compress(&update, seed, None, &mut a);
        Int8Quantizer.compress(&update, seed, None, &mut b);
        prop_assert_eq!(&a, &b);
        let mut decoded = Vec::new();
        a.decode_into(&mut decoded);
        let max_abs = update.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let step = (max_abs / 127.0) as f32 as f64;
        for (u, d) in update.iter().zip(decoded.iter()) {
            prop_assert!((u - d).abs() <= step + 1e-9);
        }
    }

    /// Top-k error feedback conserves the signal *exactly* in f64:
    /// `sent + residual' == update + residual` bit for bit, every round,
    /// and the residual never grows without bound.
    #[test]
    fn topk_error_feedback_conserves_the_signal(
        rounds in 2usize..8,
        dim in 4usize..48,
        fraction in 0.05f64..0.9,
        seed in 0u64..u64::MAX,
    ) {
        let sparser = TopKSparsifier::new(fraction);
        let mut residual: Vec<f64> = Vec::new();
        let mut out = CompressedUpdate::new();
        let mut carried: Vec<f64> = vec![0.0; dim];
        for round in 0..rounds {
            let update: Vec<f64> = (0..dim)
                .map(|d| {
                    let h = seed ^ (round as u64) << 32 ^ d as u64;
                    let mut x = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    x ^= x >> 29;
                    (x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
                })
                .collect();
            let effective: Vec<f64> = update
                .iter()
                .zip(carried.iter())
                .map(|(u, r)| u + r)
                .collect();
            sparser.compress(&update, round as u64, Some(&mut residual), &mut out);
            let mut sent = Vec::new();
            out.decode_into(&mut sent);
            for ((s, r), e) in sent.iter().zip(residual.iter()).zip(effective.iter()) {
                prop_assert_eq!((s + r).to_bits(), e.to_bits());
            }
            // Residual is bounded by the largest unsent effective entry.
            let bound = effective.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            prop_assert!(residual.iter().all(|r| r.abs() <= bound + 1e-12));
            carried.clone_from(&residual);
        }
    }

    /// The fixed-point accumulator agrees with naive f64 weighted
    /// averaging to within the 2⁻³² quantization grid, at any shard count.
    #[test]
    fn fixed_point_average_matches_float_reference(
        dim in 1usize..32,
        n in 1usize..20,
        shards in 1usize..8,
        seed in 0u64..u64::MAX,
    ) {
        let clients: Vec<(Vec<f64>, u64)> = (0..n)
            .map(|i| {
                let params: Vec<f64> = (0..dim)
                    .map(|d| {
                        let mut x = (seed ^ (i as u64) << 24 ^ d as u64)
                            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                        x ^= x >> 31;
                        (x >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
                    })
                    .collect();
                (params, 1 + (seed >> 8 ^ i as u64) % 200)
            })
            .collect();
        let updates: Vec<(&[f64], u64)> =
            clients.iter().map(|(p, w)| (p.as_slice(), *w)).collect();
        let mut root = UpdateAccumulator::new();
        let mut scratch = UpdateAccumulator::new();
        let mut fixed = Vec::new();
        let plan = ShardPlan::with_shards(shards);
        prop_assert!(bofl_fleet::shard::aggregate_sharded(
            plan, dim, &updates, &mut root, &mut scratch, &mut fixed
        ));
        let total: u64 = clients.iter().map(|(_, w)| *w).sum();
        for d in 0..dim {
            let float: f64 = clients
                .iter()
                .map(|(p, w)| p[d] * *w as f64)
                .sum::<f64>()
                / total as f64;
            prop_assert!((fixed[d] - float).abs() < 1e-7);
        }
    }
}
